"""The NoCap task simulator (Sec. VII "Modeled system").

Reproduces the paper's evaluation methodology: tasks execute one at a
time; each task's latency is the maximum of its per-FU compute time and
its memory time (decoupled data orchestration hides load latency); the
simulator tracks FU and bandwidth usage and activity factors for the
power model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import constants as C
from ..obs import FAMILIES  # canonical task-family taxonomy (Fig. 6)
from .config import DEFAULT_CONFIG, NoCapConfig
from .tasks import TaskCost, build_prover_tasks

COMPUTE_UNITS = ("mul", "add", "hash", "shuffle", "ntt")


@dataclass
class TaskRecord:
    """One simulated task's outcome: what ran, for how long, and why.

    ``bound`` records which side of the max(compute, memory) latency model
    won — the paper's memory-bound vs compute-bound classification per
    family (Fig. 6).
    """

    name: str
    family: str
    seconds: float
    mem_bytes: float = 0.0
    bound: str = "compute"              # "compute" | "memory"
    fu_cycles: Dict[str, float] = field(default_factory=dict)


@dataclass
class SimulationReport:
    """Outcome of simulating one proof generation."""

    config: NoCapConfig
    padded_constraints: int
    total_seconds: float
    time_by_family: Dict[str, float]
    traffic_by_family: Dict[str, float]
    busy_cycles_by_unit: Dict[str, float]
    task_times: List[TaskRecord]

    @property
    def total_traffic_bytes(self) -> float:
        return sum(self.traffic_by_family.values())

    @property
    def total_cycles(self) -> float:
        return self.total_seconds * self.config.frequency_hz

    def compute_utilization(self, units: tuple = ("mul", "add")) -> float:
        """Busy fraction of the (wide arithmetic) compute resources,
        averaged over the run — the paper's Fig. 6 utilization metric."""
        if self.total_cycles == 0:
            return 0.0
        busy = sum(self.busy_cycles_by_unit[u] for u in units) / len(units)
        return busy / self.total_cycles

    def memory_utilization(self) -> float:
        limit = self.total_seconds * self.config.hbm_bytes_per_s
        return self.total_traffic_bytes / limit if limit else 0.0

    def time_fractions(self) -> Dict[str, float]:
        total = self.total_seconds or 1.0
        return {f: t / total for f, t in self.time_by_family.items()}

    def traffic_fractions(self) -> Dict[str, float]:
        total = self.total_traffic_bytes or 1.0
        return {f: b / total for f, b in self.traffic_by_family.items()}


class NoCapSimulator:
    """Task-level timing simulator for the Spartan+Orion prover."""

    def __init__(self, config: Optional[NoCapConfig] = None):
        self.config = config or DEFAULT_CONFIG

    def simulate_tasks(self, tasks: List[TaskCost],
                       padded_constraints: int) -> SimulationReport:
        cfg = self.config
        time_by_family = {f: 0.0 for f in FAMILIES}
        traffic_by_family = {f: 0.0 for f in FAMILIES}
        busy = {u: 0.0 for u in COMPUTE_UNITS}
        task_times: List[TaskRecord] = []
        total = 0.0
        for task in tasks:
            seconds = task.time_seconds(cfg)
            total += seconds
            time_by_family[task.family] = (
                time_by_family.get(task.family, 0.0) + seconds)
            traffic_by_family[task.family] = (
                traffic_by_family.get(task.family, 0.0) + task.mem_bytes)
            cycles = task.compute_cycles(cfg)
            for unit, c in cycles.items():
                busy[unit] += c
            compute_s = max(cycles.values()) / cfg.frequency_hz
            memory_s = task.mem_bytes / cfg.hbm_bytes_per_s
            task_times.append(TaskRecord(
                name=task.name,
                family=task.family,
                seconds=seconds,
                mem_bytes=task.mem_bytes,
                bound="memory" if memory_s >= compute_s else "compute",
                fu_cycles=cycles,
            ))
        return SimulationReport(
            config=cfg,
            padded_constraints=padded_constraints,
            total_seconds=total,
            time_by_family=time_by_family,
            traffic_by_family=traffic_by_family,
            busy_cycles_by_unit=busy,
            task_times=task_times,
        )

    def simulate(self, padded_constraints: int,
                 repetitions: int = C.SUMCHECK_REPETITIONS,
                 recompute: bool = True) -> SimulationReport:
        """Simulate one proof of a padded power-of-two statement."""
        tasks = build_prover_tasks(padded_constraints, self.config,
                                   repetitions, recompute)
        return self.simulate_tasks(tasks, padded_constraints)


def prover_seconds(raw_constraints: int,
                   config: Optional[NoCapConfig] = None,
                   repetitions: int = C.SUMCHECK_REPETITIONS,
                   recompute: bool = True) -> float:
    """Convenience: NoCap proving time for a raw (unpadded) statement."""
    from ..ntt.polymul import next_pow2

    n = next_pow2(raw_constraints)
    return NoCapSimulator(config).simulate(n, repetitions, recompute).total_seconds
