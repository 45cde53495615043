"""Telemetry for the functional prover and the simulator: three stores,
each fact booked once.

* the **span tree** (:mod:`.tracer`) — one run's profile: nested
  wall/CPU-time spans labeled with the paper's task families, exported
  as Chrome trace-event JSON and the ``BENCH_phases.json`` breakdown
  (:mod:`.export`);
* the **kernel counters** (:mod:`.metrics`) — operation counts, on
  exactly while a trace is on;
* the **flight log** (:mod:`.events`) — one :class:`JobReport` per
  prove / prove_many / verify job plus supervision incidents, always on.

Instrumented code uses the module-level helpers::

    from repro import obs

    with obs.span("pcs.commit", "rs_encode", n=len(table)):
        ...

and stays on a no-op fast path (a shared null span, a disabled metrics
registry) until a trace is started::

    with obs.tracing() as tracer:
        snark.prove()
    print(tracer.format_tree())

See ``docs/OBSERVABILITY.md`` for every span, counter and event kind and
the reader of each.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .metrics import METRICS, MetricsRegistry, peak_rss_bytes  # noqa: F401
from .events import FLIGHT, FlightRecorder, JobReport  # noqa: F401
from .tracer import (  # noqa: F401
    FAMILIES,
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
)
from . import events  # noqa: F401
from . import export  # noqa: F401

#: The active tracer: module state, single-threaded like the prover.
_active = NULL_TRACER


def span(name: str, family: str = "other", **attrs):
    """Open a span on the active tracer (no-op when tracing is off)."""
    return _active.span(name, family, **attrs)


def get_tracer() -> Optional[Tracer]:
    """The active :class:`Tracer`, or None when tracing is disabled."""
    return _active if isinstance(_active, Tracer) else None


def set_tracer(tracer) -> None:
    """Install ``tracer`` (or None to disable) as the active tracer."""
    global _active
    _active = tracer if tracer is not None else NULL_TRACER


@contextmanager
def tracing():
    """``with obs.tracing() as tracer:`` — reset and enable the kernel
    counters and install a fresh :class:`Tracer` for the block; on exit
    snapshot the counters into ``tracer.metrics_snapshot`` and restore
    the no-op path."""
    METRICS.reset()
    METRICS.enabled = True
    tracer = Tracer(METRICS)
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        tracer.finish()
        METRICS.enabled = False
        set_tracer(None)


__all__ = [
    "FAMILIES", "FLIGHT", "FlightRecorder", "JobReport", "METRICS",
    "MetricsRegistry", "NullTracer", "NULL_TRACER", "SpanRecord", "Tracer",
    "events", "export", "get_tracer", "peak_rss_bytes", "set_tracer", "span",
    "tracing",
]
