"""Flight recorder: what this process has been doing, one record per fact.

Where the tracer answers "where did *this* run's time go", the flight
recorder answers "what has this *process* been doing" — every proving
job and every supervision incident (worker restart, dispatch stall,
degradation to serial, spent deadline), always on.  It keeps two things:

* per-kind incident totals in memory — what a job's report diffs to
  count the incidents of its own window, exactly, however many fired;
* an optional JSONL spool (``REPRO_FLIGHT_LOG=PATH`` or
  :meth:`FlightRecorder.spool_to`) that gets every record as one
  ``{kind, ts, data}`` line — what ``repro report`` reads.

A ``kind="job"`` record's ``data`` is a :class:`JobReport`: job id,
operation, preset, circuit id, worker count, dispatch mode, duration,
proof size, peak-RSS delta, outcome, and the *per-job deltas* of
supervision incidents (the totals at exit minus the totals at entry,
so a second batch in the same process starts its report at zero).  Any
other kind is an incident.

Every report is built by one constructor, :meth:`FlightRecorder.job`,
which ``prove``, ``prove_many`` and ``verify`` each open exactly once
per call.  A daemon job runs its body with its own id set as private
per-job context, so the id ``submit`` returned is the report's.  The
recorder is cheap enough to stay on — two dict copies and a spool line
per *job*, one counter bump and a spool line per *incident*, nothing
per kernel call.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .metrics import peak_rss_bytes

#: Environment variable naming the JSONL spool file (optional).
FLIGHT_LOG_ENV = "REPRO_FLIGHT_LOG"

#: Every kind the recorder emits.  ``job`` is a :class:`JobReport`; the
#: rest are supervision incidents from :mod:`repro.parallel`.
EVENT_KINDS = (
    "job",              # one completed/failed prove or verify job
    "worker_restart",   # lost jobs got their second round on fresh workers
    "dispatch_stall",   # watchdog fired: nothing completed in the window
    "task_error",       # an in-task exception surfaced from a worker
    "degradation",      # a job was re-proved in-process after its worker failed
    "timeout",          # a cooperative deadline expired
)

#: The id the next :meth:`FlightRecorder.job` opened in this context
#: takes instead of minting one (a daemon job's, set around its body).
_JOB_ID: ContextVar[Optional[str]] = ContextVar("repro_job_id",
                                                default=None)


@dataclass
class JobReport:
    """Structured telemetry for one proving (or verification) job.

    ``events`` holds the per-job *deltas* of supervision incidents — how
    many worker restarts, stalls, task errors, degradations, and timeouts
    fired while this job ran — computed by diffing the recorder's
    incident totals, so reports never inherit a previous batch's.
    """

    job_id: str
    op: str                         # "prove" | "prove_many" | "verify"
    preset: str = ""
    circuit_id: str = ""
    workers: int = 1
    dispatch: str = "serial"        # "serial" | "pool"
    jobs: int = 1                   # batch size (1 for single prove)
    duration_s: float = 0.0
    proof_size_bytes: int = 0
    peak_rss_delta_bytes: int = 0
    ok: bool = True
    error: str = ""
    events: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id, "op": self.op, "preset": self.preset,
            "circuit_id": self.circuit_id, "workers": self.workers,
            "dispatch": self.dispatch, "jobs": self.jobs,
            "duration_s": round(self.duration_s, 6),
            "proof_size_bytes": self.proof_size_bytes,
            "peak_rss_delta_bytes": self.peak_rss_delta_bytes,
            "ok": self.ok, "error": self.error,
            "events": dict(self.events),
        }


class FlightRecorder:
    """Per-kind incident totals plus an optional JSONL spool."""

    def __init__(self, spool_path: Optional[str] = None):
        self._incidents: Dict[str, int] = {}
        self._job_ids = itertools.count(1)  # next() is one atomic step
        self.spool_path = spool_path

    def spool_to(self, path: Optional[str]) -> None:
        """Start (or with None, stop) appending records to a JSONL file."""
        self.spool_path = path

    def next_job_id(self) -> str:
        """A process-unique job id: ``<pid>-<n>``."""
        return f"{os.getpid()}-{next(self._job_ids)}"

    def incidents(self) -> Dict[str, int]:
        """Snapshot of the per-kind incident totals; hand it to
        :meth:`fault_deltas` to count what a window added."""
        return dict(self._incidents)

    def fault_deltas(self, before: Dict[str, int]) -> Dict[str, int]:
        """Incidents recorded since the :meth:`incidents` snapshot
        ``before`` — exact however many, and never a previous window's."""
        return {kind: n - before.get(kind, 0)
                for kind, n in self._incidents.items()
                if n > before.get(kind, 0)}

    def record(self, kind: str, **data: Any) -> None:
        """Count one incident and spool it."""
        self._incidents[kind] = self._incidents.get(kind, 0) + 1
        self._spool(kind, data)

    @contextmanager
    def job(self, op: str, preset: str, circuit_id: str,
            jobs: int = 1) -> Iterator[JobReport]:
        """Book one job: ``with FLIGHT.job("prove", ...) as report:``.

        Takes the id a daemon job set for its body, else mints one, and
        snapshots the incident totals, peak RSS and clock on entry; the
        block fills in what only it knows (proof size, dispatch, a
        verdict).  Jobs the block opens mint their own ids.  On exit the
        report gets its duration, RSS delta and the incidents recorded
        inside the window, ``ok=False`` and the error's class name if an
        exception escapes (it is re-raised, never swallowed), and is
        spooled once as a ``kind="job"`` record.
        """
        report = JobReport(job_id=_JOB_ID.get() or self.next_job_id(),
                           op=op, preset=preset, circuit_id=circuit_id,
                           jobs=jobs)
        token = _JOB_ID.set(None)
        before, rss0 = self.incidents(), peak_rss_bytes()
        t0 = time.perf_counter()
        try:
            yield report
        except BaseException as exc:
            report.ok, report.error = False, type(exc).__name__
            raise
        finally:
            _JOB_ID.reset(token)
            report.duration_s = time.perf_counter() - t0
            report.peak_rss_delta_bytes = max(0, peak_rss_bytes() - rss0)
            report.events = self.fault_deltas(before)
            self._spool("job", report.to_dict())

    def _spool(self, kind: str, data: Dict[str, Any]) -> None:
        path = self.spool_path
        if path is None:
            return
        line = json.dumps({"kind": kind, "ts": time.time(), "data": data},
                          sort_keys=True)
        try:
            with open(path, "a") as fh:
                fh.write(line + "\n")
        except OSError:
            pass  # a broken spool must never take the prover down


def read_spool(path: str, last: Optional[int] = None) -> List[dict]:
    """Parse a JSONL spool file back into event dicts (oldest first);
    ``last`` keeps the most recent N, none for ``N <= 0``.

    Malformed lines (a crash mid-append) are skipped, not fatal.
    """
    events: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "kind" in obj:
                events.append(obj)
    if last is None:
        return events
    return events[-last:] if last > 0 else []


def format_events(events: Iterable[dict]) -> str:
    """Human-readable one-line-per-event rendering for ``repro report``."""
    lines = []
    for ev in events:
        ts = time.strftime("%H:%M:%S", time.localtime(ev.get("ts", 0)))
        data = ev.get("data", {})
        if ev.get("kind") == "job":
            faults = data.get("events") or {}
            fault_str = ("" if not faults else " faults=" + ",".join(
                f"{k}:{v}" for k, v in sorted(faults.items())))
            status = "ok" if data.get("ok") else f"FAIL({data.get('error')})"
            lines.append(
                f"{ts} job {data.get('job_id', '?'):<12} "
                f"{data.get('op', '?'):<10} {data.get('circuit_id') or '-':<10}"
                f" preset={data.get('preset') or '-':<10}"
                f" workers={data.get('workers', 1)}"
                f" dispatch={data.get('dispatch', '?'):<6}"
                f" {data.get('duration_s', 0.0):8.3f}s"
                f" proof={data.get('proof_size_bytes', 0):>8}B"
                f" rss+={data.get('peak_rss_delta_bytes', 0):>10}B"
                f" {status}{fault_str}")
        else:
            extras = " ".join(f"{k}={v}" for k, v in sorted(data.items()))
            lines.append(f"{ts} {ev.get('kind', '?'):<16} {extras}")
    return "\n".join(lines)


#: The process-wide flight recorder (module state, like METRICS).
FLIGHT = FlightRecorder(spool_path=os.environ.get(FLIGHT_LOG_ENV) or None)
