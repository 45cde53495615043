"""Process-wide kernel counter/gauge registry.

A single module-level :data:`METRICS` registry collects operation counts
(``field.mul_batches``, ``merkle.hashes``, ``ntt.butterflies``, ...) and
point-in-time gauges (``process.peak_rss_bytes``).  Instrumented code
calls ``METRICS.inc`` / ``METRICS.gauge`` unconditionally; when the
registry is disabled (the default) each call returns after one attribute
check, so the hot loops stay within noise of the uninstrumented code.

The registry is on exactly while a trace is: :func:`repro.obs.tracing`
resets and enables it on entry and disables it on exit, and nothing
else in ``src/`` writes ``METRICS.enabled``.  Its readers are the
tracer (per-span counter deltas), ``repro trace --metrics``,
``BENCH_phases.json`` and the op-count tests.  Latency
is not booked here: a run's time is its span tree, a job's is its
:class:`~repro.obs.events.JobReport` (``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import sys
from typing import Dict, Union

Number = Union[int, float]


class MetricsRegistry:
    """Named monotonic counters and last-value gauges.

    ``inc``/``gauge`` are no-ops while ``enabled`` is False — that check
    is the only cost instrumented code pays in normal operation.
    """

    __slots__ = ("enabled", "_counters", "_gauges")

    def __init__(self) -> None:
        self.enabled = False
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}

    # -- write side (hot path) --------------------------------------------
    def inc(self, name: str, amount: Number = 1) -> None:
        """Add ``amount`` to counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: Number) -> None:
        """Record the latest value of gauge ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        self._gauges[name] = value

    # -- read side ---------------------------------------------------------
    def counters(self) -> Dict[str, Number]:
        return dict(self._counters)

    def gauges(self) -> Dict[str, Number]:
        return dict(self._gauges)

    def snapshot(self) -> Dict[str, dict]:
        return {"counters": self.counters(), "gauges": self.gauges()}

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()


#: The process-wide registry every instrumented kernel reports to.
METRICS = MetricsRegistry()


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    Uses :func:`resource.getrusage`; Linux reports ``ru_maxrss`` in KiB,
    macOS in bytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(ru)
    return int(ru) * 1024
