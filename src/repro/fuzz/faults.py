"""Deterministic fault injection for the parallel proving engine.

The chaos harness (``tools/chaos_harness.py``) needs to reproduce the
failure modes a long-running prover actually sees — a worker SIGKILLed
mid-job, a dispatch that hangs, a job that raises — at *seeded,
repeatable* points, across process boundaries.

The mechanism is a single JSON :class:`FaultPlan` carried in the
``REPRO_FAULTS`` environment variable.  Two instrumented sites call
:func:`maybe_fault(site)` — ``prove_job`` (a worker entering
:func:`repro.parallel.kernels.prove_job`) and ``service_job`` (a
``repro serve`` job body); the call is a no-op unless a plan is installed, names that site, and the site's
per-process arrival counter has reached ``hits``.  A cross-process
*claim file* (``O_CREAT|O_EXCL``) arbitrates so each plan fires exactly
once no matter how many workers race to it — the injection point is
deterministic ("the Nth arrival at site S"), the winning process is
whichever worker gets there first.

Because the plan rides the environment, it must be installed **before**
the worker processes are started (workers snapshot the environment at
fork/spawn): run the batch inside a ``with faults.injected(plan):``
block.

Fault kinds
-----------
``worker_kill``    SIGKILL the calling process (uncatchable worker death).
``stall``          sleep ``stall_s`` seconds (a hung dispatch; the pool's
                   watchdog must detect and recover).
``error``          raise ``RuntimeError("injected fault")`` (a generic
                   in-task exception).
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, Optional

#: Environment variable carrying the JSON-encoded plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Every kind maybe_fault knows how to fire.
FAULT_KINDS = ("worker_kill", "stall", "error")


@dataclass(frozen=True)
class FaultPlan:
    """One scheduled fault: fire ``kind`` on the ``hits``-th arrival at
    ``site``, at most once across all processes sharing ``token``."""

    kind: str
    site: str
    hits: int = 1
    stall_s: float = 30.0
    token: str = "default"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {', '.join(FAULT_KINDS)}")
        if self.hits < 1:
            raise ValueError(f"hits must be >= 1, got {self.hits}")

    def to_env(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_env(cls, raw: str) -> "FaultPlan":
        return cls(**json.loads(raw))

    @property
    def claim_path(self) -> str:
        return os.path.join(tempfile.gettempdir(),
                            f"repro_fault_{self.token}.fired")


# -- plan lifecycle (harness side) ------------------------------------------

def install(plan: FaultPlan) -> None:
    """Arm ``plan`` for this process and any worker started afterwards."""
    _reset_counters()
    try:
        os.unlink(plan.claim_path)
    except OSError:
        pass
    os.environ[FAULTS_ENV] = plan.to_env()


def clear() -> None:
    """Disarm any installed plan and remove its claim file."""
    raw = os.environ.pop(FAULTS_ENV, None)
    _reset_counters()
    if raw:
        try:
            os.unlink(FaultPlan.from_env(raw).claim_path)
        except (OSError, ValueError, TypeError):
            pass


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with faults.injected(plan):`` — scoped arm/disarm.

    Run batches *inside* the block so workers inherit the armed
    environment.
    """
    install(plan)
    try:
        yield plan
    finally:
        clear()


# -- firing side (instrumented code) ----------------------------------------

#: Per-process arrival counters by site, plus a parse cache keyed on the
#: raw env string (the plan is immutable for a given armed value).
_counters: Dict[str, int] = {}
_parse_cache: Optional[tuple] = None  # (raw, plan)


def _reset_counters() -> None:
    global _parse_cache
    _counters.clear()
    _parse_cache = None


def _current_plan() -> Optional[FaultPlan]:
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    global _parse_cache
    if _parse_cache is None or _parse_cache[0] != raw:
        try:
            _parse_cache = (raw, FaultPlan.from_env(raw))
        except (ValueError, TypeError, KeyError):
            _parse_cache = (raw, None)
    return _parse_cache[1]


def _claim(plan: FaultPlan) -> bool:
    """Cross-process once-only arbitration: True for the single winner."""
    try:
        fd = os.open(plan.claim_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:  # tmpdir unwritable: fall back to per-process once
        fired = _counters.get("__fired__", 0)
        _counters["__fired__"] = 1
        return not fired
    with os.fdopen(fd, "w") as fh:
        fh.write(f"{os.getpid()} {plan.kind}@{plan.site}\n")
    return True


def maybe_fault(site: str) -> None:
    """Injection point: fire the armed plan if this is its moment."""
    plan = _current_plan()
    if plan is None or plan.site not in (site, "any"):
        return
    count = _counters.get(site, 0) + 1
    _counters[site] = count
    if count < plan.hits:
        return
    if not _claim(plan):
        return
    if plan.kind == "worker_kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif plan.kind == "stall":
        time.sleep(plan.stall_s)
    elif plan.kind == "error":
        raise RuntimeError(f"injected fault at site {plan.site!r}")

