"""The NoCap accelerator model: configuration, the task-level simulator
(Sec. VII), area/power models, and design-space exploration."""

from .area import AreaBreakdown, area_model
from .benes import BenesRouting, apply_routing
from .benes import permute as benes_permute
from .benes import route as benes_route
from .config import DEFAULT_CONFIG, NoCapConfig
from .designspace import (
    DesignPoint,
    SensitivityPoint,
    design_space_sweep,
    gmean_prover_seconds,
    pareto_frontier,
    sensitivity_sweep,
)
from .multiaccelerator import RackOperatingPoint, rack_scale, scaling_curve
from .permutations import grouped_interleave, wide_rotate
from .power import PowerBreakdown, power_model
from .simulator import (
    FAMILIES,
    NoCapSimulator,
    SimulationReport,
    TaskRecord,
    prover_seconds,
)
from .tasks import TaskCost, build_prover_tasks

__all__ = [
    "AreaBreakdown", "area_model",
    "BenesRouting", "apply_routing", "benes_permute", "benes_route",
    "RackOperatingPoint", "rack_scale", "scaling_curve",
    "grouped_interleave", "wide_rotate",
    "DEFAULT_CONFIG", "NoCapConfig",
    "DesignPoint", "SensitivityPoint", "design_space_sweep",
    "gmean_prover_seconds", "pareto_frontier", "sensitivity_sweep",
    "PowerBreakdown", "power_model",
    "FAMILIES", "NoCapSimulator", "SimulationReport", "TaskRecord",
    "prover_seconds",
    "TaskCost", "build_prover_tasks",
]
