"""The benchmark's own span recorder.

Spans are recorded from ``bench/`` around calls into the layers' public
functions — nothing inside ``src/`` knows about them.  A span is
``(name, start, end, parent, cycle)``; all spans of one cycle share its
cycle id.  Everything stays in memory until :meth:`SpanRecorder.dump`.

A span also carries a ``scale``: the host-speed factor of the calibration
bracket it ran in (:meth:`SpanRecorder.set_scale`; 1.0 outside any).
:meth:`SpanRecorder.duration` is the span's seconds at reference speed,
``end - start`` times its scale; the raw clock readings are kept.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("rec", "index")

    def __init__(self, rec: "SpanRecorder", index: int):
        self.rec = rec
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> None:
        rec = self.rec
        rec.ends[self.index] = time.perf_counter()
        rec._stack.pop()


class SpanRecorder:
    """In-memory span tree; single-threaded like the prover."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[Optional[float]] = []
        self.parents: List[Optional[int]] = []
        self.cycles: List[int] = []
        self.scales: List[float] = []
        self._stack: List[int] = []
        #: Cycle id stamped on new spans (-1 = outside any cycle).
        self.cycle = -1

    def span(self, name: str) -> _Span:
        index = len(self.names)
        self.names.append(name)
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.cycles.append(self.cycle)
        self.scales.append(1.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return _Span(self, index)

    def set_scale(self, start: int, factor: float) -> None:
        """Every span opened since index ``start`` ran at this host-speed
        factor (reference calibration over the calibration beside it)."""
        for index in range(start, len(self.names)):
            self.scales[index] = factor

    # -- queries -------------------------------------------------------------
    def duration(self, index: int) -> float:
        """Seconds at reference host speed."""
        end = self.ends[index]
        if end is None:
            return 0.0
        return (end - self.starts[index]) * self.scales[index]

    def children(self, index: int) -> List[int]:
        return [i for i, p in enumerate(self.parents) if p == index]

    def self_seconds(self, index: int) -> float:
        """Duration minus the part its child spans cover."""
        return self.duration(index) - sum(
            self.duration(i) for i in self.children(index))

    def roots(self, name: str) -> List[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def per_cycle(self, name: str, under: Optional[str] = None
                  ) -> Dict[int, float]:
        """Seconds spent in spans called ``name`` per cycle id, optionally
        only those whose parent span is called ``under``."""
        out: Dict[int, float] = defaultdict(float)
        for i, n in enumerate(self.names):
            if n != name or self.cycles[i] < 0:
                continue
            if under is not None:
                p = self.parents[i]
                if p is None or self.names[p] != under:
                    continue
            out[self.cycles[i]] += self.duration(i)
        return dict(out)

    def self_seconds_by_name(self, root_name: str) -> Dict[str, float]:
        """Self time per span name over every subtree rooted at a span
        called ``root_name`` (the root's own self time is listed under
        ``"<root_name> (glue)"``)."""
        child_time = [0.0] * len(self.names)
        in_tree = [False] * len(self.names)
        for i, p in enumerate(self.parents):
            if self.names[i] == root_name:
                in_tree[i] = True
            elif p is not None and in_tree[p]:
                in_tree[i] = True
            if p is not None:
                child_time[p] += self.duration(i)
        out: Dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            if not in_tree[i]:
                continue
            key = f"{name} (glue)" if name == root_name else name
            out[key] += self.duration(i) - child_time[i]
        return dict(out)

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "cycle": c,
             "scale": f}
            for n, s, e, p, c, f in zip(self.names, self.starts, self.ends,
                                        self.parents, self.cycles,
                                        self.scales)]
        with open(path, "w") as fh:
            json.dump({"spans": spans, **(extra or {})}, fh)
