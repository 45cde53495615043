"""Nested-span tracer for the functional prover.

A :class:`Tracer` is one run's profile, and it owns everything the run
measures: a tree of named spans (wall time, CPU time, and the counter
deltas accrued while each span was open), the kernel counters booked
through :func:`repro.obs.count` while it is the open trace, and the
process's peak RSS when it finishes.  Spans mirror the paper's
task-family taxonomy (Fig. 6): every span carries a ``family`` from
:data:`FAMILIES`, the same labels the NoCap simulator reports, so a
measured functional profile and a simulated profile can be compared
family by family.

The module-level :func:`repro.obs.span` helper routes through the open
trace.  With none open it returns a shared null span with empty
``__enter__``/``__exit__`` — the untraced cost of an instrumented
``with span(...)`` site is one function call plus two empty method
calls, far below the vectorized kernels it wraps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .events import peak_rss_bytes

#: The paper's task-family taxonomy (Fig. 6).  This is the canonical
#: definition; :mod:`repro.nocap.simulator` imports it, and every span and
#: simulated task is labeled with one of these strings.
FAMILIES = ("sumcheck", "polyarith", "rs_encode", "merkle", "spmv", "other")


@dataclass
class SpanRecord:
    """One completed (or still-open) span.

    ``wall_s``/``cpu_s`` are inclusive of children; exclusive ("self")
    attribution is computed on demand by :meth:`Tracer.family_seconds`.
    ``counters`` holds the deltas of every trace counter that changed
    while the span was open (also inclusive).
    """

    name: str
    family: str
    depth: int
    parent: Optional[int]
    start_s: float
    wall_s: Optional[float] = None
    cpu_s: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, Any] = field(default_factory=dict)


class _Span:
    """Context manager recording one span; exception-safe by construction."""

    __slots__ = ("_tracer", "_index", "_t0", "_cpu0", "_counters0")

    def __init__(self, tracer: "Tracer", index: int):
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_Span":
        tr = self._tracer
        tr._stack.append(self._index)
        self._counters0 = dict(tr.counters)
        self._cpu0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        tr = self._tracer
        rec = tr._records[self._index]
        rec.wall_s = t1 - self._t0
        rec.cpu_s = cpu1 - self._cpu0
        before = self._counters0
        rec.counters = {k: v - before.get(k, 0)
                        for k, v in tr.counters.items()
                        if v != before.get(k, 0)}
        if exc_type is not None:
            rec.attrs["error"] = exc_type.__name__
        # Unwind even if inner spans leaked (shouldn't happen: _Span exits
        # run LIFO), so one bad actor cannot corrupt the whole trace.
        while tr._stack and tr._stack[-1] != self._index:
            tr._stack.pop()
        if tr._stack:
            tr._stack.pop()
        return False


class _NullSpan:
    """Shared do-nothing span: the untraced fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records a tree of spans relative to its own start instant, plus
    the trace's kernel counters and its end-of-trace peak RSS."""

    def __init__(self):
        self._records: List[SpanRecord] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()
        #: Operation counts (``field.mul_batches``, ``merkle.hashes``,
        #: ...) in first-booked order; written by :func:`repro.obs.count`.
        self.counters: Dict[str, int] = {}
        #: The process's peak RSS, read by :meth:`finish` (None before).
        self.peak_rss_bytes: Optional[int] = None

    def span(self, name: str, family: str = "other", **attrs) -> _Span:
        """Open a nested span; use as ``with tracer.span("pcs.commit"): ...``."""
        parent = self._stack[-1] if self._stack else None
        rec = SpanRecord(
            name=name,
            family=family if family in FAMILIES else "other",
            depth=len(self._stack),
            parent=parent,
            start_s=time.perf_counter() - self._t0,
            attrs=dict(attrs),
        )
        self._records.append(rec)
        return _Span(self, len(self._records) - 1)

    def finish(self) -> "Tracer":
        """Close out the trace: read the process's peak RSS."""
        self.peak_rss_bytes = peak_rss_bytes()
        return self

    # -- aggregation -------------------------------------------------------
    def records(self) -> List[SpanRecord]:
        return list(self._records)

    def _descendant_mask(self, root_name: Optional[str]) -> List[bool]:
        """Which records sit at-or-under a span named ``root_name``
        (all of them when ``root_name`` is None or never appears)."""
        if root_name is None:
            return [True] * len(self._records)
        mask = [False] * len(self._records)
        hit = False
        for i, rec in enumerate(self._records):
            if rec.name == root_name or (
                    rec.parent is not None and mask[rec.parent]):
                mask[i] = True
                hit = True
        return mask if hit else [True] * len(self._records)

    def family_seconds(self, root_name: Optional[str] = None
                       ) -> Dict[str, float]:
        """Exclusive ("self") wall seconds per family.

        Each span's own time is its wall time minus its children's, so
        families never double count nested work.  ``root_name`` restricts
        the roll-up to one subtree (e.g. ``"snark.prove"``).
        """
        mask = self._descendant_mask(root_name)
        child_wall = [0.0] * len(self._records)
        for rec in self._records:
            if rec.parent is not None and rec.wall_s is not None:
                child_wall[rec.parent] += rec.wall_s
        out: Dict[str, float] = {}
        for i, rec in enumerate(self._records):
            if not mask[i] or rec.wall_s is None:
                continue
            self_s = max(0.0, rec.wall_s - child_wall[i])
            out[rec.family] = out.get(rec.family, 0.0) + self_s
        return out

    def total_seconds(self, root_name: Optional[str] = None) -> float:
        """Wall seconds covered by the (filtered) root spans."""
        mask = self._descendant_mask(root_name)
        total = 0.0
        for i, rec in enumerate(self._records):
            if not mask[i] or rec.wall_s is None:
                continue
            if rec.parent is None or not mask[rec.parent]:
                total += rec.wall_s
        return total

    def format_tree(self, max_depth: int = 6) -> str:
        """Human-readable phase tree (one line per span)."""
        lines = []
        for rec in self._records:
            if rec.depth > max_depth:
                continue
            wall = f"{rec.wall_s * 1e3:9.2f} ms" if rec.wall_s is not None                 else "   (open)  "
            attrs = "".join(
                f" {k}={v}" for k, v in rec.attrs.items() if k != "error")
            err = "  [error]" if "error" in rec.attrs else ""
            lines.append(f"{wall}  {'  ' * rec.depth}{rec.name}"
                         f" [{rec.family}]{attrs}{err}")
        return "\n".join(lines)
