"""The proving service daemon: a thread per connection, one job thread.

Architecture (see ``docs/SERVICE.md`` for the operator view)::

    client ──frames──▶ connection thread (socketserver, one per connection)
                          │  submit: put_nowait, queue.Full is the typed 429
                          ▼
                 queue.Queue ──▶ the job thread: KeyCache / ProofCache,
                          │      prove() / verify()
                          ▼
                 _finish_job → job.done → result frames

Connection threads only shuffle frames and one thread proves, so a 30 s
paper-preset proof never blocks a ``status`` poll and no two proofs
share the process.  The queue's FIFO is the start order, whichever
connection submitted; one lock guards the job table, retention and
counters.  Job bodies call the lifecycle API, so deadlines apply and
each prove or verify books one :class:`~repro.obs.events.JobReport`
under the id ``submit`` returned (a proof-cache hit books nothing).
``stats`` is the in-band scrape, ``wait_s`` / ``run_s`` in a job's
replies its latency; nothing here opens a trace.

Failure contract: a failed job carries a typed error in its replies and
no connection hangs; a submission past the queue bound is the 429-style
:data:`~repro.service.protocol.E_QUEUE_FULL`.  :meth:`ProvingService.stop`
fails queued jobs with :data:`~repro.service.protocol.E_SHUTTING_DOWN`,
waits for the running one, then hangs up every connection (a peer that
stops reading its replies is dropped after :data:`HANGUP_SEND_STALL_S`).
A finished job keeps at most one envelope (a prove's result) and is
forgotten oldest-first past :data:`RESULT_RETENTION_BYTES` or
:data:`MAX_FINISHED_JOBS`.
"""

from __future__ import annotations

import contextlib
import os
import queue
import signal
import socket
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Set

from ..errors import ConfigError
from ..obs.events import _JOB_ID, FLIGHT as _FLIGHT
from ..parallel.pool import _maybe_fault
from ..workloads.registry import resolve_workload
from . import protocol
from .cache import (
    DEFAULT_PROOF_CACHE_BYTES,
    KeyCache,
    ProofCache,
    proof_cache_key,
)

#: Default bound on admitted-but-unstarted jobs (``--queue-depth``).
DEFAULT_MAX_DEPTH = 16
#: Finished jobs are forgotten oldest-first once their envelopes together
#: exceed this many bytes, or they number more than MAX_FINISHED_JOBS.
RESULT_RETENTION_BYTES = 64 * 1024 * 1024
MAX_FINISHED_JOBS = 1024
#: Once :meth:`ProvingService.stop` hangs up, a reply waits at most this
#: long for its peer to take another byte before the connection is
#: dropped: a peer that pipelines requests and never reads would
#: otherwise hold its connection thread in a send, and ``stop()`` with
#: it, for good.  A peer still reading its reply takes bytes sooner.
HANGUP_SEND_STALL_S = 1.0


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune, with production-ish defaults."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 = OS-assigned (reported on start)
    unix_socket: Optional[str] = None
    queue_depth: int = DEFAULT_MAX_DEPTH
    preset: str = "test-fast"        # default preset for prove jobs
    proof_cache_bytes: int = DEFAULT_PROOF_CACHE_BYTES
    timeout_s: Optional[float] = 120.0   # default per-job deadline

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.timeout_s is not None and not self.timeout_s >= 0:
            raise ConfigError(f"timeout_s must be >= 0, got {self.timeout_s}")
        if self.proof_cache_bytes < 0:
            raise ConfigError(f"proof_cache_bytes must be >= 0, got "
                              f"{self.proof_cache_bytes}")


@dataclass
class Job:
    """One submitted unit of work and its lifecycle state."""

    job_id: str
    kind: str                        # "prove" | "verify"
    circuit_id: str = ""
    preset: str = ""
    seed: Optional[int] = None
    timeout_s: Optional[float] = None
    envelope: Optional[bytes] = None     # verify input / prove output
    state: str = "queued"
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cached: bool = False
    valid: Optional[bool] = None         # verify outcome
    error: Optional[BaseException] = None
    report: Optional[dict] = None        # JobReport.to_dict() of the job
    done: threading.Event = field(default_factory=threading.Event)

    def status_dict(self) -> dict:
        out = {
            "job_id": self.job_id, "kind": self.kind, "state": self.state,
            "circuit_id": self.circuit_id, "preset": self.preset,
            "cached": self.cached,
        }
        if self.started_at is not None:
            out["wait_s"] = round(self.started_at - self.submitted_at, 6)
            if self.finished_at is not None:
                out["run_s"] = round(self.finished_at - self.started_at, 6)
        if self.state == "failed" and self.error is not None:
            out["error"] = type(self.error).__name__
            out["message"] = str(self.error)
        if self.valid is not None:
            out["valid"] = self.valid
        return out


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True  # rebind a port whose old sockets linger


def _shutting_down(message: str) -> protocol.ServiceError:
    return protocol.ServiceError(message, code=protocol.E_SHUTTING_DOWN)


class ProvingService:
    """The daemon behind ``repro serve``: :meth:`start` returns once it
    listens, :meth:`stop` once it has drained and no thread of it is
    left.  :func:`serve_forever` is the blocking entry point."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.key_cache = KeyCache()
        self.proof_cache = ProofCache(self.config.proof_cache_bytes)
        self.jobs: "Dict[str, Job]" = {}
        # Admitted-but-unstarted jobs; None ends the job thread.
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(
            self.config.queue_depth)
        # Guards the job table, retention, counters and connections.
        self._lock = threading.Lock()
        self._connections: Set[socket.socket] = set()
        self._finished: Deque[Job] = deque()   # oldest first, for retention
        self._finished_bytes = 0
        self.enqueued = 0
        self.peak_depth = 0
        self.rejected_full = 0
        self._server: Optional[socketserver.BaseServer] = None
        self._job_thread = threading.Thread(target=self._work,
                                            name="repro-job")
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = False
        self._hanging_up = False        # set once the job thread drained
        self._stopped = threading.Event()
        self._started_at = 0.0
        self._jobs_done = 0
        self._jobs_failed = 0
        self.address: Optional[Any] = None   # (host, port) or unix path

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        cfg = self.config
        if cfg.unix_socket:
            with contextlib.suppress(OSError):
                os.unlink(cfg.unix_socket)
            self._server = socketserver.ThreadingUnixStreamServer(
                cfg.unix_socket, self._converse)
            self.address = cfg.unix_socket
        else:
            self._server = _TCPServer((cfg.host, cfg.port), self._converse)
            self.address = self._server.server_address[:2]
        # socketserver calls verify_request on its accept thread, then
        # self._converse(sock, address, server) on the connection's own
        # thread: tracked before that thread starts, none escapes stop().
        self._server.verify_request = self._track
        self._accept_thread = threading.Thread(
            target=self._server.serve_forever, name="repro-accept")
        self._accept_thread.start()
        self._job_thread.start()
        self._started_at = time.monotonic()

    def stop(self) -> None:
        """Drain, tear down, leave nothing behind.  Concurrent callers
        (a ``shutdown`` op and a signal) all wait for the one teardown."""
        with self._lock:
            stopping, self._stopping = self._stopping, True
        if stopping:
            self._stopped.wait()
            return
        # Fail what never started (a client polling `result` gets a typed
        # 503, not silence); connections are answered while jobs drain.
        with contextlib.suppress(queue.Empty):
            while True:
                self._finish_job(self._queue.get_nowait(), _shutting_down(
                    "server shutting down before job started"))
        self._queue.put(None)
        self._job_thread.join()
        # Stop accepting (shutting the listener wakes the accept loop),
        # then hang up: with its read side shut, each connection thread
        # sends any reply in flight and ends at its next read, or drops a
        # peer that takes no byte of it for HANGUP_SEND_STALL_S (_send).
        self._server.socket.shutdown(socket.SHUT_RDWR)
        self._server.shutdown()
        self._accept_thread.join()
        self._hanging_up = True
        with self._lock:
            for sock in self._connections:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RD)
        self._server.server_close()  # joins the connection threads
        if self.config.unix_socket:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_socket)
        self._stopped.set()

    def _stop_soon(self) -> None:
        """:meth:`stop` for a signal handler or a connection thread."""
        threading.Thread(target=self.stop, name="repro-stop").start()

    # -- connection handling ----------------------------------------------

    def _track(self, sock: socket.socket, _address) -> bool:
        with self._lock:
            self._connections.add(sock)
        return True  # serve it

    def _converse(self, sock: socket.socket, _address, _server) -> None:
        """One connection, on its own thread: a request frame in, one
        reply out, until the peer hangs up or :meth:`stop` does."""
        try:
            while True:
                try:
                    request = protocol.read_frame_sync(sock)
                except protocol.FrameError as exc:
                    # Framing is broken: answer once and drop the
                    # connection, half-closed and drained to EOF first (a
                    # close on unread input would reset the reply away).
                    self._send(sock, protocol.pack_frame(
                        protocol.error_from_exception(exc)))
                    sock.shutdown(socket.SHUT_WR)
                    sock.settimeout(protocol.FRAME_READ_TIMEOUT_S)
                    while sock.recv(1 << 16):
                        pass
                    return
                if request is None:
                    return
                self._send(sock, protocol.pack_frame(
                    self._handle_request(request)))
        except OSError:
            # The peer hung up, went quiet after a FrameError, or stopped
            # reading while the daemon hangs up.
            pass
        finally:
            with self._lock:
                self._connections.discard(sock)

    def _send(self, sock: socket.socket, frame: bytes) -> None:
        """``sock.sendall(frame)`` in steps that each wait at most
        :data:`HANGUP_SEND_STALL_S` for the peer to take a byte.  A step
        that times out is retried, unless :meth:`stop` is hanging up:
        then the ``TimeoutError`` drops the connection."""
        view, idle_timeout = memoryview(frame), sock.gettimeout()
        sock.settimeout(HANGUP_SEND_STALL_S)
        try:
            while view:
                try:
                    view = view[sock.send(view):]
                except TimeoutError:
                    if self._hanging_up:
                        raise
        finally:
            sock.settimeout(idle_timeout)

    def _handle_request(self, request: dict) -> dict:
        op = str(request.get("op", ""))
        try:
            if self._stopping and op not in ("ping", "stats", "status",
                                             "result"):
                raise _shutting_down("server is shutting down")
            if op == "ping":
                response = protocol.ok_response(
                    version=protocol.PROTOCOL_VERSION, pid=os.getpid())
            elif op == "submit":
                response = self._op_submit(request)
            elif op == "status":
                response = self._op_status(request)
            elif op == "result":
                response = self._op_result(request)
            elif op == "stats":
                response = protocol.ok_response(stats=self.stats())
            elif op == "shutdown":
                self._stop_soon()
                response = protocol.ok_response(stopping=True)
            else:
                raise protocol.ServiceError(
                    f"unknown op {op!r}", code=protocol.E_BAD_REQUEST)
        except Exception as exc:  # noqa: BLE001 - wire boundary
            response = protocol.error_from_exception(exc)
        return response

    # -- ops ---------------------------------------------------------------

    def _op_submit(self, request: dict) -> dict:
        kind = str(request.get("kind", ""))
        if kind not in protocol.JOB_KINDS:
            raise protocol.ServiceError(
                f"kind must be one of {protocol.JOB_KINDS}, got {kind!r}",
                code=protocol.E_BAD_REQUEST)
        timeout_s = request.get("timeout_s", self.config.timeout_s)
        if timeout_s is not None:
            timeout_s = float(timeout_s)  # not a number: a typed 400
            if not timeout_s >= 0:  # NaN would disable the deadline
                raise protocol.ServiceError(
                    f"timeout_s must be >= 0, got {timeout_s}",
                    code=protocol.E_BAD_REQUEST)
        job = Job(job_id=_FLIGHT.next_job_id(), kind=kind,
                  timeout_s=timeout_s)
        circuit_id = str(request.get("circuit_id", ""))
        if circuit_id:
            # Aliases fold to one cache key; an unknown id is a 400 here,
            # before anything is queued.
            job.circuit_id = resolve_workload(circuit_id)
        if kind == "prove":
            if not job.circuit_id:
                raise protocol.ServiceError(
                    "prove requires circuit_id",
                    code=protocol.E_BAD_REQUEST)
            job.preset = str(request.get("preset") or self.config.preset)
            from ..snark import preset_by_name

            preset_by_name(job.preset)  # fail fast on unknown presets
            seed = request.get("seed")
            if seed is not None and not (type(seed) is int and seed >= 0):
                # A float, string or negative seed (what a local prove()
                # refuses) or a bool is a 400 here, never coerced.
                raise protocol.ServiceError(
                    f"seed must be an integer >= 0, got {seed!r}",
                    code=protocol.E_BAD_REQUEST)
            job.seed = seed
            # Proof-cache fast path: answer at submit time, occupy no
            # queue slot.  Key inputs are resolved lazily in the job
            # body on a miss; here we can only consult the cache when
            # the statement's keys are already cached (no compile work
            # on a connection thread).  An unseeded request draws fresh
            # masks, so it is never answered from the cache.
            if job.seed is not None:
                job.envelope = self._proof_cache_probe(job)
                job.cached = job.envelope is not None
        else:
            # The frame's blob only: base64 text (protocol 1) is a 400.
            job.envelope = request.get("envelope")
            if not isinstance(job.envelope, bytes):
                raise protocol.ServiceError(
                    "verify requires envelope bytes as the frame's blob",
                    code=protocol.E_BAD_REQUEST)
        with self._lock:
            if self._stopping:  # stop() began after the check above
                raise _shutting_down("server is shutting down")
            if not job.cached:
                try:
                    self._queue.put_nowait(job)
                except queue.Full:
                    self.rejected_full += 1
                    raise protocol.QueueFullError(
                        f"job queue full ({self.config.queue_depth} "
                        "queued); retry with backoff") from None
                self.enqueued += 1
                self.peak_depth = max(self.peak_depth, self._queue.qsize())
            self.jobs[job.job_id] = job
        if job.cached:
            self._finish_job(job)
        return protocol.ok_response(job_id=job.job_id, state=job.state,
                                    cached=job.cached)

    def _proof_cache_probe(self, job: Job) -> Optional[bytes]:
        """Cache lookup that never compiles: only when the statement is
        hot can we form the content address cheaply.  Its public inputs
        do not depend on the preset; the content address does."""
        entry = self.key_cache.peek(job.circuit_id)
        if entry is None:
            return None
        key = proof_cache_key(job.preset, job.circuit_id, entry.public,
                              job.seed)
        with self._lock:  # counts a hit: a read-modify-write
            return self.proof_cache.probe(key)

    def _op_status(self, request: dict) -> dict:
        job = self._find_job(request)
        return protocol.ok_response(**job.status_dict())

    def _op_result(self, request: dict) -> dict:
        job = self._find_job(request)
        wait_s = float(request.get("wait_s", 0.0) or 0.0)
        if wait_s > 0:  # Event.wait refuses inf
            job.done.wait(min(wait_s, threading.TIMEOUT_MAX))
        if not job.done.is_set():
            # Long-poll expired with the job still in flight: report the
            # state; the client polls again.  Not an error.
            return protocol.ok_response(**job.status_dict())
        if job.state == "failed":
            return protocol.error_from_exception(job.error)
        fields = job.status_dict()
        if job.kind == "prove" and job.envelope is not None:
            fields["envelope"] = job.envelope  # travels as the blob
        if job.report is not None:
            fields["report"] = job.report
        return protocol.ok_response(**fields)

    def _find_job(self, request: dict) -> Job:
        job_id = str(request.get("job_id", ""))
        job = self.jobs.get(job_id)
        if job is None:
            raise protocol.ServiceError(
                f"unknown job id {job_id!r}", code=protocol.E_NOT_FOUND)
        return job

    # -- job bookkeeping ---------------------------------------------------

    def _work(self) -> None:
        """The job thread: run queued jobs in submission order until the
        None that :meth:`stop` enqueues."""
        for job in iter(self._queue.get, None):
            self._finish_job(job, self._run_job(job))

    def _finish_job(self, job: Job,
                    error: Optional[BaseException] = None) -> None:
        with self._lock:
            job.finished_at = time.monotonic()
            if error is not None:
                job.error = error
                job.state = "failed"
                self._jobs_failed += 1
            else:
                job.state = "done"
                self._jobs_done += 1
            if job.kind == "verify":
                job.envelope = None  # the input; `result` never returns it
            # Bounded retention, oldest finished first; the newest always
            # stays so its submitter can fetch it.
            self._finished.append(job)
            self._finished_bytes += len(job.envelope or b"")
            while len(self._finished) > 1 and (
                    self._finished_bytes > RESULT_RETENTION_BYTES
                    or len(self._finished) > MAX_FINISHED_JOBS):
                old = self._finished.popleft()
                self._finished_bytes -= len(old.envelope or b"")
                del self.jobs[old.job_id]
        job.done.set()

    # -- job body ----------------------------------------------------------

    def _run_job(self, job: Job) -> Optional[BaseException]:
        """Job body (the job thread).  Never raises: a failure is
        *returned*, typed, for :meth:`_finish_job` to attach to the job —
        the contract that keeps clients from hanging."""
        job.started_at = time.monotonic()  # before the state a poll reads
        job.state = "running"
        # The prove / verify below books its JobReport under this job's id.
        token = _JOB_ID.set(job.job_id)
        try:
            # Chaos-harness injection point: `REPRO_FAULTS` plans naming
            # site "service_job" fire here, inside the failure contract —
            # the injected exception becomes a typed job error.
            _maybe_fault("service_job")
            if job.kind == "prove":
                self._run_prove(job)
            else:
                self._run_verify(job)
        except Exception as exc:  # noqa: BLE001 - typed error to client
            return exc
        finally:
            _JOB_ID.reset(token)
        return None

    def _run_prove(self, job: Job) -> None:
        from ..snark.api import prove_envelope

        entry = self.key_cache.get_or_build(job.circuit_id, job.preset)
        key = None if job.seed is None else proof_cache_key(
            job.preset, job.circuit_id, entry.public, job.seed)
        with self._lock:
            cached = None if key is None else self.proof_cache.get(key)
        if cached is not None:
            job.envelope = cached
            job.cached = True
            return
        bundle, job.envelope = prove_envelope(
            entry.pk, entry.public, entry.witness, seed=job.seed,
            circuit_id=job.circuit_id, timeout_s=job.timeout_s)
        job.report = bundle.report.to_dict()
        if key is not None:
            with self._lock:
                self.proof_cache.put(key, job.envelope)

    def _run_verify(self, job: Job) -> None:
        from ..snark import ProofBundle, verify

        bundle = ProofBundle.from_bytes(job.envelope)
        circuit_id = job.circuit_id or bundle.circuit_id
        if not circuit_id:
            raise ConfigError(
                "envelope carries no circuit id; pass circuit_id to name "
                "the statement it proves")
        job.circuit_id = resolve_workload(circuit_id)
        job.preset = bundle.preset_name
        entry = self.key_cache.get_or_build(job.circuit_id, job.preset)
        job.valid = verify(entry.vk, bundle)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3)
            if self._started_at else 0.0,
            "pid": os.getpid(),
            "accepting": bool(self._started_at) and not self._stopping,
            "jobs_done": self._jobs_done,
            "jobs_failed": self._jobs_failed,
            "jobs_tracked": len(self.jobs),
            "queue": {
                "depth": self._queue.qsize(),
                "peak_depth": self.peak_depth,
                "max_depth": self.config.queue_depth,
                "enqueued": self.enqueued,
                "rejected_full": self.rejected_full,
                # Vestige: nothing rejects per client any more, but
                # bench/layers.py sums this key (ROADMAP item 3(a)).
                "rejected_client": 0,
            },
            "pk_cache": self.key_cache.stats(),
            "proof_cache": self.proof_cache.stats(),
            "config": {
                "preset": self.config.preset,
                "queue_depth": self.config.queue_depth,
            },
        }


def serve_forever(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``: serve until SIGINT,
    SIGTERM (it takes over both handlers) or an in-band ``shutdown``,
    then drain and return 0."""
    service = ProvingService(config)
    service.start()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: service._stop_soon())
    where = (service.address if isinstance(service.address, str)
             else "%s:%d" % tuple(service.address))
    print(f"repro serve: listening on {where} "
          f"(pid {os.getpid()}, queue {config.queue_depth}, "
          f"preset {config.preset})",
          flush=True)
    service._stopped.wait()
    print("repro serve: drained and stopped", flush=True)
    return 0
