"""Telemetry for the functional prover and the simulator: two stores,
each fact booked once.

* the **trace** (:mod:`.tracer`) — one run's profile, on exactly while
  :func:`tracing` is open: nested wall/CPU-time spans labeled with the
  paper's task families, the kernel counters (operation counts, each
  span holding its inclusive deltas) and the end-of-trace peak RSS,
  exported as Chrome trace-event JSON and the ``BENCH_phases.json``
  breakdown (:mod:`.export`);
* the **flight log** (:mod:`.events`) — one :class:`JobReport` per
  prove / prove_many / verify job plus supervision incidents, always on.

Instrumented code uses the module-level helpers::

    from repro import obs

    with obs.span("pcs.commit", "rs_encode", n=len(table)):
        obs.count("rs.rows_encoded", rows)

and stays on a no-op fast path (a shared null span, a count that
returns at once) until a trace is opened; a site whose count costs
anything to compute checks ``obs.get_tracer() is not None`` first::

    with obs.tracing() as tracer:
        snark.prove()
    print(tracer.format_tree(), tracer.counters)

Traces do not nest: :func:`tracing` opened while another trace is open
raises ``RuntimeError`` before it touches the open one, which goes on
recording every span and count of its run.

See ``docs/OBSERVABILITY.md`` for every span, counter and event kind and
the reader of each.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .events import (  # noqa: F401
    FLIGHT, FlightRecorder, JobReport, peak_rss_bytes)
from .tracer import _NULL_SPAN, FAMILIES, SpanRecord, Tracer  # noqa: F401

#: The open trace, or None: module state, single-threaded like the prover.
_active: Optional[Tracer] = None


def span(name: str, family: str = "other", **attrs):
    """Open a span on the open trace (the shared null span when none is)."""
    tracer = _active
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, family, **attrs)


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to counter ``name`` of the open trace (no-op when
    no trace is open)."""
    tracer = _active
    if tracer is not None:
        counters = tracer.counters
        counters[name] = counters.get(name, 0) + amount


def get_tracer() -> Optional[Tracer]:
    """The open :class:`Tracer`, or None when no trace is open."""
    return _active


@contextmanager
def tracing():
    """``with obs.tracing() as tracer:`` — the one way to start a trace:
    open a fresh :class:`Tracer` for the block, and on exit read its peak
    RSS (:meth:`Tracer.finish`) and restore the no-op path.  Raises
    ``RuntimeError`` if a trace is already open."""
    global _active
    if _active is not None:
        raise RuntimeError("a trace is already open; obs.tracing() "
                           "does not nest")
    tracer = _active = Tracer()
    try:
        yield tracer
    finally:
        tracer.finish()
        _active = None


__all__ = [
    "FAMILIES", "FLIGHT", "FlightRecorder", "JobReport", "SpanRecord",
    "Tracer", "count", "events", "get_tracer", "peak_rss_bytes", "span",
    "tracing",
]
