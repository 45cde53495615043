"""Exporters: Chrome trace-event JSON and the ``BENCH_phases.json`` schema.

Two render targets from one instrumentation layer:

* :func:`chrome_trace` — a ``chrome://tracing`` / Perfetto-loadable JSON
  object holding the *measured* functional-prover span tree (pid 1) and
  the *modeled* NoCap task timeline (pid 2), one track per task family,
  so model-vs-reality drift is visible on a single timeline.
* :func:`phases_payload` — the machine-readable per-phase breakdown
  (``BENCH_phases.json``): family-labeled seconds/fractions on both
  sides, counters and gauges (the spans themselves are the Chrome
  trace's events: each is booked once).

Both formats ship with lightweight validators (:func:`validate_chrome_trace`,
:func:`validate_phases`) used by the tests and the CI trace step — no
external jsonschema dependency.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from .tracer import FAMILIES, SpanRecord, Tracer

#: Version of the ``BENCH_phases.json`` schema.
PHASES_SCHEMA = "repro/bench-phases"
PHASES_SCHEMA_VERSION = 2

#: pid labels in the combined Chrome trace.
FUNCTIONAL_PID = 1
SIMULATED_PID = 2


# -- Chrome trace events -----------------------------------------------------

def _process_name(pid: int, name: str) -> dict:
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name}}


def _thread_name(pid: int, tid: int, name: str) -> dict:
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def spans_to_trace_events(records: Iterable[SpanRecord],
                          pid: int = FUNCTIONAL_PID,
                          tid: int = 1,
                          process_label: str = "repro functional prover",
                          thread_label: str = "functional prover (measured)",
                          ) -> List[dict]:
    """Render a span tree as Chrome "X" (complete) events, one per span."""
    events = [_thread_name(pid, tid, thread_label),
              _process_name(pid, process_label)]
    for rec in records:
        if rec.wall_s is None:
            continue  # span never closed (crash mid-trace): skip
        args: Dict[str, Any] = {"depth": rec.depth}
        args.update(rec.attrs)
        if rec.counters:
            args["counters"] = dict(rec.counters)
        if rec.cpu_s is not None:
            args["cpu_ms"] = round(rec.cpu_s * 1e3, 6)
        events.append({
            "name": rec.name,
            "cat": rec.family,
            "ph": "X",
            "ts": round(rec.start_s * 1e6, 3),
            "dur": round(rec.wall_s * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    return events


def report_to_trace_events(report, pid: int = SIMULATED_PID) -> List[dict]:
    """Render a :class:`~repro.nocap.simulator.SimulationReport` as serial
    task slices, one Perfetto track per family (stable `FAMILIES` order)."""
    events = [_process_name(pid, "NoCap simulator (modeled)")]
    tids = {fam: i + 1 for i, fam in enumerate(FAMILIES)}
    for fam, tid in tids.items():
        events.append(_thread_name(pid, tid, f"family: {fam}"))
    clock = 0.0
    for task in report.task_times:
        events.append({
            "name": task.name,
            "cat": task.family,
            "ph": "X",
            "ts": round(clock * 1e6, 3),
            "dur": round(task.seconds * 1e6, 3),
            "pid": pid,
            "tid": tids.get(task.family, len(FAMILIES) + 1),
            "args": {"family": task.family, "mem_bytes": task.mem_bytes,
                     "bound": task.bound},
        })
        clock += task.seconds
    return events


def chrome_trace(records: Optional[Iterable[SpanRecord]] = None,
                 report=None,
                 metadata: Optional[dict] = None) -> dict:
    """Assemble the combined Chrome trace object (JSON Object Format)."""
    events: List[dict] = []
    if records is not None:
        events += spans_to_trace_events(records)
    if report is not None:
        events += report_to_trace_events(report)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def write_chrome_trace(path, records=None, report=None, metadata=None
                       ) -> dict:
    """Write :func:`chrome_trace` output to ``path``; returns the object."""
    obj = chrome_trace(records=records, report=report, metadata=metadata)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    return obj


def validate_chrome_trace(obj) -> List[str]:
    """Validate the trace-event JSON shape; returns a list of problems
    (empty means valid).  Covers what Perfetto actually requires: the
    ``traceEvents`` array and, per event, name/ph/ts/pid/tid types plus a
    non-negative ``dur`` for complete ("X") events."""
    errs: List[str] = []
    if not isinstance(obj, dict):
        return ["trace must be a JSON object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        errs.append("traceEvents is empty")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errs.append(f"{where}: not an object")
            continue
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errs.append(f"{where}: missing name")
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "M", "C", "I"):
            errs.append(f"{where}: bad ph {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errs.append(f"{where}: {key} must be an int")
        if ph == "M":
            continue  # metadata events carry no timestamp requirements
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errs.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errs.append(f"{where}: dur must be a non-negative number")
    return errs


# -- BENCH_phases.json -------------------------------------------------------

def _full_family_map(partial: Dict[str, float]) -> Dict[str, float]:
    """Every family present, stable order, extras folded into 'other'."""
    out = {fam: float(partial.get(fam, 0.0)) for fam in FAMILIES}
    for key, val in partial.items():
        if key not in out:
            out["other"] += float(val)
    return out


def _fractions(seconds: Dict[str, float]) -> Dict[str, float]:
    total = sum(seconds.values()) or 1.0
    return {fam: s / total for fam, s in seconds.items()}


def phases_payload(tracer: Optional[Tracer] = None,
                   report=None,
                   workload: Optional[str] = None,
                   root_span: str = "snark.prove") -> dict:
    """Build the machine-readable per-phase breakdown.

    ``functional`` aggregates the tracer's spans under ``root_span`` (the
    prover subtree, so verify time does not pollute the profile);
    ``simulated`` summarizes a :class:`SimulationReport`.  Either side may
    be absent (``None``).
    """
    payload: Dict[str, Any] = {
        "schema": PHASES_SCHEMA,
        "schema_version": PHASES_SCHEMA_VERSION,
        "workload": workload,
        "families": list(FAMILIES),
    }
    if tracer is not None:
        fam_s = _full_family_map(tracer.family_seconds(root_span))
        snapshot = tracer.metrics_snapshot or tracer.metrics.snapshot()
        payload["functional"] = {
            "total_s": tracer.total_seconds(root_span),
            "seconds_by_family": fam_s,
            "fractions_by_family": _fractions(fam_s),
            "counters": snapshot.get("counters", {}),
            "gauges": snapshot.get("gauges", {}),
        }
    if report is not None:
        time_by_family = _full_family_map(report.time_by_family)
        traffic = _full_family_map(report.traffic_by_family)
        payload["simulated"] = {
            "padded_constraints": report.padded_constraints,
            "total_s": report.total_seconds,
            "seconds_by_family": time_by_family,
            "fractions_by_family": _fractions(time_by_family),
            "traffic_bytes_by_family": traffic,
            "traffic_fractions_by_family": _fractions(traffic),
            "compute_utilization": report.compute_utilization(),
            "memory_utilization": report.memory_utilization(),
        }
    return payload


def write_phases(path, **kwargs) -> dict:
    obj = phases_payload(**kwargs)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    return obj


def validate_phases(obj) -> List[str]:
    """Validate a ``BENCH_phases.json`` payload; empty list means valid."""
    errs: List[str] = []
    if not isinstance(obj, dict):
        return ["phases payload must be a JSON object"]
    if obj.get("schema") != PHASES_SCHEMA:
        errs.append(f"schema must be {PHASES_SCHEMA!r}")
    if obj.get("schema_version") != PHASES_SCHEMA_VERSION:
        errs.append(f"schema_version must be {PHASES_SCHEMA_VERSION}")
    if obj.get("families") != list(FAMILIES):
        errs.append("families must list the canonical family taxonomy")
    if "functional" not in obj and "simulated" not in obj:
        errs.append("need at least one of functional/simulated sections")
    for section in ("functional", "simulated"):
        sec = obj.get(section)
        if sec is None:
            continue
        if not isinstance(sec, dict):
            errs.append(f"{section} must be an object")
            continue
        total = sec.get("total_s")
        if not isinstance(total, (int, float)) or total < 0:
            errs.append(f"{section}.total_s must be a non-negative number")
        for key in ("seconds_by_family", "fractions_by_family"):
            m = sec.get(key)
            if not isinstance(m, dict):
                errs.append(f"{section}.{key} must be an object")
                continue
            if set(m) != set(FAMILIES):
                errs.append(f"{section}.{key} keys must match FAMILIES")
            if not all(isinstance(v, (int, float)) and v >= 0
                       for v in m.values()):
                errs.append(f"{section}.{key} values must be non-negative")
        fracs = sec.get("fractions_by_family")
        if isinstance(fracs, dict) and fracs and all(
                isinstance(v, (int, float)) for v in fracs.values()):
            total_frac = sum(fracs.values())
            if total_frac and abs(total_frac - 1.0) > 1e-6:
                errs.append(f"{section}.fractions_by_family must sum to 1")
    return errs
