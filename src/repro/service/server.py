"""The proving service daemon: asyncio front end, threaded prover back end.

Architecture (see ``docs/SERVICE.md`` for the operator view)::

    client ──frames──▶ asyncio connection handler
                          │  submit: admit while fewer than
                          │  queue_depth jobs wait, else the typed 429
                          ▼
                 run_in_executor ──▶ _run_job (worker thread)
                          │            KeyCache / ProofCache
                          │            prove() / verify()
                          ▼
                 future done → _finish_job (on the loop) → result frames

The event loop only shuffles frames, and one thread proves: a
single-worker :class:`~concurrent.futures.ThreadPoolExecutor` runs every
job body, so a 30 s paper-preset proof never blocks a ``status`` poll and
no two proofs share the process.  The executor's FIFO is the daemon's one
queue — jobs start in submission order whichever connection sent them.
Job bodies call the ordinary lifecycle API, so cooperative
deadlines apply to service traffic unchanged, and every job that proves
or verifies leaves one :class:`~repro.obs.events.JobReport` in the
flight log (``repro serve --flight-log``) under the id ``submit``
returned; a proof-cache hit proves nothing and books nothing.  The
daemon's in-band scrape is the ``stats`` op — plain attributes of the
service, its caches and the job table; a job's own latency is
``wait_s`` (submit → start) and ``run_s`` (start → finish) in its
``status``/``result`` replies.  Nothing here touches the kernel counter
registry.

Failure contract: a job that fails carries a typed error (name +
message) in its ``status``/``result`` responses; the connection never
hangs.  Submissions past the queue bound are rejected with the
429-style :data:`~repro.service.protocol.E_QUEUE_FULL` before any work
is queued.  On shutdown the daemon stops accepting, fails queued jobs
with :data:`~repro.service.protocol.E_SHUTTING_DOWN` and waits for
running jobs.  A finished job holds at most one envelope (a prove
result; a verify input is dropped) and is forgotten oldest-first once
finished jobs together pass :data:`RESULT_RETENTION_BYTES` or
:data:`MAX_FINISHED_JOBS`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Set

from ..errors import ConfigError
from ..obs.events import _JOB_ID, FLIGHT as _FLIGHT
from ..parallel.kernels import _maybe_fault
from ..workloads.registry import resolve_workload
from . import protocol
from .cache import (
    DEFAULT_KEY_CACHE_BYTES,
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


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune, with production-ish defaults."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 = OS-assigned (reported on start)
    unix_socket: Optional[str] = None
    queue_depth: int = DEFAULT_MAX_DEPTH
    preset: str = "test-fast"        # default preset for prove jobs
    key_cache_bytes: int = DEFAULT_KEY_CACHE_BYTES
    proof_cache_bytes: int = DEFAULT_PROOF_CACHE_BYTES
    timeout_s: Optional[float] = 120.0   # default per-job deadline

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.timeout_s is not None and not self.timeout_s >= 0:
            raise ConfigError(f"timeout_s must be >= 0, got {self.timeout_s}")
        for name in ("key_cache_bytes", "proof_cache_bytes"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}")


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
    future: Optional[asyncio.Future] = None  # None: answered at submit

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


class ProvingService:
    """The daemon behind ``repro serve``.

    Use :meth:`start` / :meth:`stop` from an event loop, or
    :func:`serve_forever` as the blocking entry point.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.key_cache = KeyCache(self.config.key_cache_bytes)
        self.proof_cache = ProofCache(self.config.proof_cache_bytes)
        self.jobs: "Dict[str, Job]" = {}
        # Admitted-but-unstarted job ids: added on the loop at submit,
        # discarded by the worker thread that starts the job.
        self._waiting: Set[str] = set()
        self._finished: Deque[Job] = deque()   # oldest first, for retention
        self._finished_bytes = 0
        self.enqueued = 0
        self.peak_depth = 0
        self.rejected_full = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._accepting = False
        self._stopping = False
        self._stopped = asyncio.Event()
        self._started_at = 0.0
        self._jobs_done = 0
        self._jobs_failed = 0
        self.address: Optional[Any] = None   # (host, port) or unix path

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        cfg = self.config
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-job")
        if cfg.unix_socket:
            with contextlib.suppress(OSError):
                os.unlink(cfg.unix_socket)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=cfg.unix_socket)
            self.address = cfg.unix_socket
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=cfg.host, port=cfg.port)
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]
        self._accepting = True
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Graceful shutdown: drain, tear down, leave nothing behind.

        Idempotent: concurrent callers (in-band ``shutdown`` op plus a
        signal) all wait for the one real teardown to complete.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._accepting = False
        if self._server is not None:
            self._server.close()  # no new connections; open ones stay
        # Cancel whatever never started (the future's callback fails the
        # job with a typed 503, so a client polling `result` gets an
        # answer, not silence) and let running jobs finish — off the
        # loop, which keeps answering `status` meanwhile.
        if self._executor is not None:
            await asyncio.to_thread(self._executor.shutdown, wait=True,
                                    cancel_futures=True)
        unfinished = [job.future for job in self.jobs.values()
                      if job.finished_at is None]
        if unfinished:
            await asyncio.wait(unfinished)
        if self._server is not None:
            await self._server.wait_closed()
        if self.config.unix_socket:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_socket)
        self._stopped.set()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await protocol.read_frame_async(reader)
                except protocol.FrameError as exc:
                    # Framing is broken; answer once, then drop the
                    # connection (we can no longer find frame boundaries).
                    writer.write(protocol.pack_frame(
                        protocol.error_from_exception(exc)))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._handle_request(request)
                writer.write(protocol.pack_frame(response))
                await writer.drain()
                if request.get("op") == "shutdown":
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_request(self, request: dict) -> dict:
        op = str(request.get("op", ""))
        try:
            if self._stopping and op not in ("ping", "stats", "status",
                                             "result"):
                raise protocol.ServiceError(
                    "server is shutting down",
                    code=protocol.E_SHUTTING_DOWN)
            if op == "ping":
                response = protocol.ok_response(
                    version=protocol.PROTOCOL_VERSION, pid=os.getpid())
            elif op == "submit":
                response = self._op_submit(request)
            elif op == "status":
                response = self._op_status(request)
            elif op == "result":
                response = await self._op_result(request)
            elif op == "stats":
                response = protocol.ok_response(stats=self.stats())
            elif op == "shutdown":
                asyncio.get_running_loop().create_task(
                    self._shutdown_soon())
                response = protocol.ok_response(stopping=True)
            else:
                raise protocol.ServiceError(
                    f"unknown op {op!r}", code=protocol.E_BAD_REQUEST)
        except Exception as exc:  # noqa: BLE001 - wire boundary
            response = protocol.error_from_exception(exc)
        return response

    async def _shutdown_soon(self) -> None:
        # A beat of delay lets the shutdown response flush first.
        await asyncio.sleep(0)
        await self.stop()

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
            # on the event loop).  An unseeded request draws fresh masks,
            # so it is never answered from the cache.
            hit = None if job.seed is None else self._proof_cache_probe(job)
            if hit is not None:
                job.envelope = hit
                job.cached = True
                self.jobs[job.job_id] = job
                self._finish_job(job)
                return protocol.ok_response(job_id=job.job_id,
                                            state=job.state, cached=True)
        else:
            # The frame's blob only: base64 text (protocol 1) is a 400.
            job.envelope = request.get("envelope")
            if not isinstance(job.envelope, bytes):
                raise protocol.ServiceError(
                    "verify requires envelope bytes as the frame's blob",
                    code=protocol.E_BAD_REQUEST)
        if len(self._waiting) >= self.config.queue_depth:
            self.rejected_full += 1
            raise protocol.QueueFullError(
                f"job queue full ({self.config.queue_depth} queued); retry "
                "with backoff")
        self.jobs[job.job_id] = job
        self._waiting.add(job.job_id)
        self.enqueued += 1
        self.peak_depth = max(self.peak_depth, len(self._waiting))
        job.future = asyncio.get_running_loop().run_in_executor(
            self._executor, self._run_job, job)
        job.future.add_done_callback(
            lambda future: self._job_returned(job, future))
        return protocol.ok_response(job_id=job.job_id, state=job.state,
                                    cached=False)

    def _proof_cache_probe(self, job: Job) -> Optional[bytes]:
        """Cache lookup that never compiles: only when the statement's
        keys are hot can we form the content address cheaply."""
        entry = self.key_cache.peek(job.circuit_id, job.preset)
        if entry is None:
            return None
        return self.proof_cache.probe(proof_cache_key(
            job.preset, job.circuit_id, entry.public, job.seed))

    def _op_status(self, request: dict) -> dict:
        job = self._find_job(request)
        return protocol.ok_response(**job.status_dict())

    async def _op_result(self, request: dict) -> dict:
        job = self._find_job(request)
        wait_s = float(request.get("wait_s", 0.0) or 0.0)
        if job.finished_at is None and wait_s > 0:
            await asyncio.wait([job.future], timeout=wait_s)
        if job.finished_at is None:
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

    def _job_returned(self, job: Job, future: asyncio.Future) -> None:
        """Done-callback of the job's executor future (on the loop)."""
        if future.cancelled():  # shutdown, before any thread picked it up
            self._waiting.discard(job.job_id)
            error: Optional[BaseException] = protocol.ServiceError(
                "server shutting down before job started",
                code=protocol.E_SHUTTING_DOWN)
        else:
            error = future.exception() or future.result()
        self._finish_job(job, error)

    def _finish_job(self, job: Job,
                    error: Optional[BaseException] = None) -> None:
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

    # -- job body ----------------------------------------------------------

    def _run_job(self, job: Job) -> Optional[BaseException]:
        """Job body (worker thread): lifecycle API + caches.

        Never raises: a failure is *returned*, typed, for the future's
        done-callback to attach to the job on the loop — the contract
        that keeps clients from hanging.
        """
        self._waiting.discard(job.job_id)
        job.state = "running"
        job.started_at = time.monotonic()
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
        from ..snark import prove

        entry = self.key_cache.get_or_build(job.circuit_id, job.preset)
        key = None if job.seed is None else proof_cache_key(
            job.preset, job.circuit_id, entry.public, job.seed)
        cached = None if key is None else self.proof_cache.get(key)
        if cached is not None:
            job.envelope = cached
            job.cached = True
            return
        bundle = prove(entry.pk, entry.public, entry.witness,
                       seed=job.seed, circuit_id=job.circuit_id,
                       timeout_s=job.timeout_s)
        job.envelope = bundle.to_bytes()
        job.report = bundle.report.to_dict()
        if key is not None:
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
            "accepting": self._accepting,
            "jobs_done": self._jobs_done,
            "jobs_failed": self._jobs_failed,
            "jobs_tracked": len(self.jobs),
            "queue": {
                "depth": len(self._waiting),
                "peak_depth": self.peak_depth,
                "max_depth": self.config.queue_depth,
                "enqueued": self.enqueued,
                "rejected_full": self.rejected_full,
                # Vestige: nothing rejects per client any more, but
                # bench/layers.py sums this key (ROADMAP item 2a).
                "rejected_client": 0,
            },
            "pk_cache": self.key_cache.stats(),
            "proof_cache": self.proof_cache.stats(),
            "config": {
                "preset": self.config.preset,
                "queue_depth": self.config.queue_depth,
            },
        }


async def _serve(config: ServiceConfig) -> None:
    service = ProvingService(config)
    await service.start()
    where = (service.address if isinstance(service.address, str)
             else "%s:%d" % tuple(service.address))
    print(f"repro serve: listening on {where} "
          f"(pid {os.getpid()}, queue {config.queue_depth}, "
          f"preset {config.preset})",
          flush=True)
    loop = asyncio.get_running_loop()
    stop_signal = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, stop_signal.set)
    # Either a signal or an in-band `shutdown` op ends the daemon.
    while not service._stopping:
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(stop_signal.wait(), timeout=0.2)
        if stop_signal.is_set():
            break
    await service.stop()
    print("repro serve: drained and stopped", flush=True)


def serve_forever(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``."""
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:  # pragma: no cover - signal race
        pass
    return 0
