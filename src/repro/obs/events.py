"""Flight recorder: a bounded ring buffer of structured prover events.

Where the tracer answers "where did *this* run's time go", the flight
recorder answers "what has this *process* been doing" — the last N
proving jobs and every supervision incident (worker restart, dispatch
stall, degradation to serial, spent deadline) in one bounded,
always-on log.  It is the service-grade complement to per-run tracing:
a long-running prover keeps the recorder warm across thousands of jobs
at O(1) memory, and a post-mortem reads the tail instead of re-running.

Two record shapes share the ring:

* :class:`FlightEvent` — one incident: ``kind`` (see
  :data:`EVENT_KINDS`), a monotonic sequence number, a wall-clock
  timestamp, and a small ``data`` dict.
* :class:`JobReport` — one completed (or failed) prove/verify job,
  recorded as a ``kind="job"`` event whose ``data`` is the report: job
  id, operation, preset, circuit id, worker count, dispatch mode,
  duration, proof size, peak-RSS delta, outcome, and the *per-job
  deltas* of supervision incidents (computed from the event sequence
  numbers spanning the job — never from absolute counter values, so a
  second batch in the same process starts its report at zero).

Every report is built by one constructor, :meth:`FlightRecorder.job`,
which ``prove``, ``prove_many`` and ``verify`` each open exactly once
per call.  The recorder is always on and cheap enough to be — one small
object append per *job* or *incident*, nothing per kernel call.  Set
``REPRO_FLIGHT_LOG=PATH`` (or :meth:`FlightRecorder.spool_to`) to append
each record as a JSON line; that spool is what ``repro report`` reads,
since the in-memory ring dies with its process.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .metrics import peak_rss_bytes

#: Environment variable naming the JSONL spool file (optional).
FLIGHT_LOG_ENV = "REPRO_FLIGHT_LOG"

#: Default ring capacity (events + job reports combined).
DEFAULT_CAPACITY = 512

#: Every kind the recorder emits.  ``job`` wraps a :class:`JobReport`;
#: the rest are supervision incidents from :mod:`repro.parallel`.
EVENT_KINDS = (
    "job",              # one completed/failed prove or verify job
    "worker_restart",   # lost jobs got their second round on fresh workers
    "dispatch_stall",   # watchdog fired: nothing completed in the window
    "task_error",       # an in-task exception surfaced from a worker
    "degradation",      # a job was re-proved in-process after its worker failed
    "timeout",          # a cooperative deadline expired
)

#: Incident kinds summed into JobReport per-job fault deltas.
_FAULT_KINDS = ("worker_restart", "dispatch_stall", "task_error",
                "degradation", "timeout")


@dataclass
class FlightEvent:
    """One ring-buffer record."""

    kind: str
    seq: int
    ts: float                      # wall clock (time.time)
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seq": self.seq, "ts": self.ts,
                "data": dict(self.data)}


@dataclass
class JobReport:
    """Structured telemetry for one proving (or verification) job.

    ``events`` holds the per-job *deltas* of supervision incidents — how
    many worker restarts, stalls, task errors, degradations, and timeouts
    fired while this job ran — computed by diffing recorder sequence
    numbers, so reports never inherit a previous batch's incidents.
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
    """Bounded, append-only event ring with an optional JSONL spool."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 spool_path: Optional[str] = None):
        self._ring: "deque[FlightEvent]" = deque(maxlen=max(1, capacity))
        self._seq = 0
        self._job_counter = 0
        self.spool_path = spool_path

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    @property
    def seq(self) -> int:
        """Sequence number of the next event (monotonic, never reused)."""
        return self._seq

    def spool_to(self, path: Optional[str]) -> None:
        """Start (or with None, stop) appending records to a JSONL file."""
        self.spool_path = path

    def next_job_id(self) -> str:
        """A process-unique job id: ``<pid>-<n>``."""
        self._job_counter += 1
        return f"{os.getpid()}-{self._job_counter}"

    # -- write side --------------------------------------------------------
    def record(self, kind: str, **data: Any) -> FlightEvent:
        """Append one incident."""
        event = FlightEvent(kind=kind, seq=self._seq, ts=time.time(),
                            data=data)
        self._seq += 1
        self._ring.append(event)
        self._spool(event)
        return event

    def record_job(self, report: JobReport) -> FlightEvent:
        """Append one :class:`JobReport` as a ``kind="job"`` event."""
        return self.record("job", **report.to_dict())

    @contextmanager
    def job(self, op: str, preset: str, circuit_id: str,
            jobs: int = 1) -> Iterator[JobReport]:
        """Book one job: ``with FLIGHT.job("prove", ...) as report:``.

        Mints the job id and snapshots the sequence number, peak RSS and
        clock on entry; the block fills in what only it knows (proof
        size, dispatch, a verdict).  On exit the report gets its
        duration, RSS delta and the incidents recorded inside the
        window, ``ok=False`` and the error's class name if an exception
        escapes (it is re-raised, never swallowed), and is recorded once.
        """
        report = JobReport(job_id=self.next_job_id(), op=op, preset=preset,
                           circuit_id=circuit_id, jobs=jobs)
        seq0, rss0, t0 = self._seq, peak_rss_bytes(), time.perf_counter()
        try:
            yield report
        except BaseException as exc:
            report.ok, report.error = False, type(exc).__name__
            raise
        finally:
            report.duration_s = time.perf_counter() - t0
            report.peak_rss_delta_bytes = max(0, peak_rss_bytes() - rss0)
            report.events = self.fault_deltas(seq0)
            self.record_job(report)

    def _spool(self, event: FlightEvent) -> None:
        path = self.spool_path
        if path is None:
            return
        try:
            with open(path, "a") as fh:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        except OSError:
            # A broken spool must never take the prover down; the
            # in-memory ring still has the record.
            pass

    # -- read side ---------------------------------------------------------
    def events(self) -> List[FlightEvent]:
        return list(self._ring)

    def since(self, seq: int) -> List[FlightEvent]:
        """Events recorded at or after sequence number ``seq``.

        The per-job delta primitive: snapshot :attr:`seq` when a job
        starts, then count what arrived while it ran.  Correct even for
        back-to-back batches in one process — unlike reading absolute
        counter values, which accumulate for the process lifetime.
        """
        return [e for e in self._ring if e.seq >= seq]

    def fault_deltas(self, seq: int) -> Dict[str, int]:
        """Count supervision incidents recorded at or after ``seq``."""
        deltas: Dict[str, int] = {}
        for event in self.since(seq):
            if event.kind in _FAULT_KINDS:
                deltas[event.kind] = deltas.get(event.kind, 0) + 1
        return deltas

    def clear(self) -> None:
        self._ring.clear()


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
