"""The NoCap accelerator model: configuration, the task-level simulator
(Sec. VII), area/power models, and design-space exploration."""

from .area import AreaBreakdown, area_model
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
    "RackOperatingPoint", "rack_scale", "scaling_curve",
    "DEFAULT_CONFIG", "NoCapConfig",
    "DesignPoint", "SensitivityPoint", "design_space_sweep",
    "gmean_prover_seconds", "pareto_frontier", "sensitivity_sweep",
    "PowerBreakdown", "power_model",
    "FAMILIES", "NoCapSimulator", "SimulationReport", "TaskRecord",
    "prover_seconds",
    "TaskCost", "build_prover_tasks",
]
