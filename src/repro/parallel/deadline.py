"""Cooperative deadlines for the proving engine.

A proof has no natural preemption points a supervisor could interrupt —
the kernels are long numpy calls — so cancellation is *cooperative*: the
caller opens a :func:`deadline_scope`, and instrumented chokepoints
(phase boundaries in :mod:`repro.spartan.protocol`, every dispatch wait
in :class:`~repro.parallel.pool.ProverPool`) call :func:`check_deadline`, which raises
:class:`~repro.errors.ProverTimeoutError` once the budget is spent.

The active deadline is per context (a :class:`contextvars.ContextVar`):
of two threads calling ``prove()``, each sees only the scopes it opened.  Scopes nest: an inner scope can only
*tighten* the deadline (its expiry is clamped to the enclosing one), so a
per-job budget inside a batch budget never extends the batch.

The fast path is one ``is None`` check — proving without a deadline pays
nothing.  A worker gets its job's own budget as an argument; the parent
enforces dispatch-level budgets by bounding its waits with
:func:`remaining` (see ``ProverPool.prove_batch``) and killing workers
that overrun.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from ..errors import ProverTimeoutError

__all__ = [
    "Deadline",
    "active_deadline",
    "check_deadline",
    "deadline_scope",
    "remaining",
]


class Deadline:
    """An absolute expiry on the monotonic clock plus its original budget."""

    __slots__ = ("expires_at", "budget_s", "label")

    def __init__(self, budget_s: float, label: str = ""):
        # ``not >=`` also refuses NaN, which would never expire.
        if budget_s is None or not budget_s >= 0:
            raise ValueError(f"deadline budget must be >= 0, got {budget_s}")
        self.budget_s = float(budget_s)
        self.expires_at = time.monotonic() + self.budget_s
        self.label = label

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, phase: str = "") -> None:
        """Raise :class:`ProverTimeoutError` if the budget is spent."""
        if self.expired:
            what = self.label or "prover deadline"
            from ..obs.events import FLIGHT
            FLIGHT.record("timeout", label=what, phase=phase,
                          budget_s=self.budget_s)
            raise ProverTimeoutError(f"{what} expired",
                                     budget_s=self.budget_s, phase=phase)


#: The active deadline (None = unbounded), one per thread / context.
_ACTIVE: ContextVar[Optional[Deadline]] = ContextVar("repro_deadline",
                                                     default=None)


def active_deadline() -> Optional[Deadline]:
    """The deadline currently in force, or None."""
    return _ACTIVE.get()


def remaining() -> Optional[float]:
    """Seconds left on the active deadline, or None when unbounded."""
    deadline = _ACTIVE.get()
    return None if deadline is None else deadline.remaining()


def check_deadline(phase: str = "") -> None:
    """Cooperative cancellation point: no-op when no deadline is active,
    raises :class:`~repro.errors.ProverTimeoutError` once expired."""
    deadline = _ACTIVE.get()
    if deadline is not None:
        deadline.check(phase)


@contextmanager
def deadline_scope(budget_s: Optional[float],
                   label: str = "") -> Iterator[Optional[Deadline]]:
    """Install a deadline for the duration of the block.

    ``budget_s=None`` is a no-op scope (unbounded).  Nested scopes clamp:
    the effective expiry is the *earlier* of the new budget and any
    enclosing deadline, so callers cannot accidentally extend a budget
    set above them.  The previous deadline is restored on exit, by token,
    even when the block raises.
    """
    prev = _ACTIVE.get()
    if budget_s is None:
        yield prev
        return
    deadline = Deadline(budget_s, label=label)
    if prev is not None and prev.expires_at < deadline.expires_at:
        deadline.expires_at = prev.expires_at
    token = _ACTIVE.set(deadline)
    try:
        yield deadline
    finally:
        _ACTIVE.reset(token)
