"""The proving service daemon: asyncio front end, threaded prover back end.

Architecture (see ``docs/SERVICE.md`` for the operator view)::

    client ──frames──▶ asyncio connection handler
                          │  submit: admission control
                          ▼
                 BoundedJobQueue (priority + per-client fairness)
                          │  dispatcher task, one per job slot
                          ▼
                 run_in_executor ──▶ _run_job (worker thread)
                          │            KeyCache / ProofCache
                          │            prove() / verify()
                          ▼
                 job done/failed → per-job asyncio.Event → result frames

The event loop only ever shuffles frames and queue entries; proving runs
on a small :class:`~concurrent.futures.ThreadPoolExecutor` so a 30 s
paper-preset proof never blocks a ``status`` poll.  ``job_slots`` — the
number of executor threads — is the daemon's one concurrency model: a
request is one proof job and runs on the thread that picked it up.  Job
bodies call the ordinary lifecycle API, which means cooperative
deadlines apply to service traffic unchanged and every job leaves a
:class:`~repro.obs.events.JobReport` in the flight log (``repro serve
--flight-log``).  The daemon's in-band scrape is the ``stats`` op — plain
attributes of the queue, the caches and the job table; a job's own
latency is ``wait_s`` (submit → start) and ``run_s`` (start → finish) in
its ``status``/``result`` replies.  Nothing here touches the kernel
counter registry.

Failure contract: a job that fails carries a typed error (name +
message) in its ``status``/``result`` responses; the connection never
hangs.  Submissions past the queue bound are rejected with the
429-style :data:`~repro.service.protocol.E_QUEUE_FULL` before any work
is queued.  On shutdown the daemon stops accepting, fails queued jobs
with :data:`~repro.service.protocol.E_SHUTTING_DOWN` and waits for
running jobs.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import ConfigError
from ..obs.events import FLIGHT as _FLIGHT
from ..parallel.kernels import _maybe_fault
from . import protocol
from .cache import (
    DEFAULT_KEY_CACHE_BYTES,
    DEFAULT_PROOF_CACHE_BYTES,
    KeyCache,
    ProofCache,
    proof_cache_key,
)
from .queue import DEFAULT_MAX_DEPTH, DEFAULT_MAX_PER_CLIENT, BoundedJobQueue


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune, with production-ish defaults."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 = OS-assigned (reported on start)
    unix_socket: Optional[str] = None
    queue_depth: int = DEFAULT_MAX_DEPTH
    max_per_client: int = DEFAULT_MAX_PER_CLIENT
    job_slots: int = 1               # concurrent executor threads
    preset: str = "test-fast"        # default preset for prove jobs
    key_cache_bytes: int = DEFAULT_KEY_CACHE_BYTES
    proof_cache_bytes: int = DEFAULT_PROOF_CACHE_BYTES
    timeout_s: Optional[float] = 120.0   # default per-job deadline
    max_results: int = 1024          # finished jobs kept for `result`

    def __post_init__(self) -> None:
        if self.job_slots < 1:
            raise ConfigError(
                f"job_slots must be >= 1, got {self.job_slots}")


@dataclass
class Job:
    """One submitted unit of work and its lifecycle state."""

    job_id: str
    kind: str                        # "prove" | "verify"
    client: str
    circuit_id: str = ""
    preset: str = ""
    seed: Optional[int] = None
    priority: int = 0
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
    done: asyncio.Event = field(default_factory=asyncio.Event)

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
        self.queue = BoundedJobQueue(self.config.queue_depth,
                                     self.config.max_per_client)
        self.key_cache = KeyCache(self.config.key_cache_bytes)
        self.proof_cache = ProofCache(self.config.proof_cache_bytes)
        self.jobs: "Dict[str, Job]" = {}
        self._job_order: list = []       # insertion order, for retention
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatchers: list = []
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
            max_workers=cfg.job_slots, thread_name_prefix="repro-job")
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
        self._dispatchers = [
            asyncio.ensure_future(self._dispatch_loop())
            for _ in range(cfg.job_slots)]
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
            self._server.close()
            await self._server.wait_closed()
        # Fail whatever never started; clients polling `result` get a
        # typed 503, not silence.
        while True:
            job = self.queue.get_nowait()
            if job is None:
                break
            self._finish_job(job, error=protocol.ServiceError(
                "server shutting down before job started",
                code=protocol.E_SHUTTING_DOWN))
        # Let running jobs finish: cancel the dispatch loops (they are
        # either awaiting the queue or awaiting an executor future — the
        # latter shields the job body, which runs to completion).
        running = [j for j in self.jobs.values() if j.state == "running"]
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for job in running:
            await job.done.wait()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.config.unix_socket:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_socket)
        self._stopped.set()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername") or "unix"
        default_client = f"{peer}" if peer else "unix"
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
                response = await self._handle_request(request,
                                                      default_client)
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

    async def _handle_request(self, request: dict,
                              default_client: str) -> dict:
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
                response = self._op_submit(request, default_client)
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

    def _op_submit(self, request: dict, default_client: str) -> dict:
        kind = str(request.get("kind", ""))
        if kind not in protocol.JOB_KINDS:
            raise protocol.ServiceError(
                f"kind must be one of {protocol.JOB_KINDS}, got {kind!r}",
                code=protocol.E_BAD_REQUEST)
        client = str(request.get("client") or default_client)
        priority = int(request.get("priority", 0))
        timeout_s = request.get("timeout_s", self.config.timeout_s)
        if timeout_s is not None:
            timeout_s = float(timeout_s)
        job = Job(job_id=f"svc-{_FLIGHT.next_job_id()}", kind=kind,
                  client=client, priority=priority, timeout_s=timeout_s)
        if kind == "prove":
            job.circuit_id = str(request.get("circuit_id", ""))
            if not job.circuit_id:
                raise protocol.ServiceError(
                    "prove requires circuit_id",
                    code=protocol.E_BAD_REQUEST)
            from ..workloads.registry import resolve_workload

            job.circuit_id = resolve_workload(job.circuit_id)
            job.preset = str(request.get("preset") or self.config.preset)
            from ..snark import preset_by_name

            preset_by_name(job.preset)  # fail fast on unknown presets
            seed = request.get("seed")
            job.seed = None if seed is None else int(seed)
            # Proof-cache fast path: answer at submit time, skip the
            # queue entirely.  Key inputs are resolved lazily in the job
            # body on a miss; here we can only consult the cache when
            # the statement's keys are already cached (no compile work
            # on the event loop).
            hit = self._proof_cache_probe(job)
            if hit is not None:
                job.envelope = hit
                job.cached = True
                self._register_job(job)
                self._finish_job(job)
                return protocol.ok_response(job_id=job.job_id,
                                            state=job.state, cached=True)
        else:
            blob = request.get("envelope")
            if not blob:
                raise protocol.ServiceError(
                    "verify requires envelope",
                    code=protocol.E_BAD_REQUEST)
            job.envelope = protocol.decode_blob(str(blob))
            job.circuit_id = str(request.get("circuit_id", ""))
        self._register_job(job)
        try:
            self.queue.put(job, priority=priority, client=client)
        except protocol.QueueFullError:
            self._forget_job(job)
            raise
        return protocol.ok_response(job_id=job.job_id, state=job.state,
                                    cached=False)

    def _proof_cache_probe(self, job: Job) -> Optional[bytes]:
        """Cache lookup that never compiles: only when the statement's
        keys are hot can we form the content address cheaply.  Uses
        counter-neutral peeks (a probe miss falls through to the counted
        lookup inside the job body); a probe *hit* is a real
        proof-cache hit and is counted as one."""
        entry = self.key_cache._lru.peek((job.circuit_id, job.preset))
        if entry is None:
            return None
        key = proof_cache_key(job.preset, job.circuit_id, entry.public,
                              job.seed)
        hit = self.proof_cache._lru.peek(key)
        if hit is not None:
            self.proof_cache._lru.hits += 1
        return hit

    def _op_status(self, request: dict) -> dict:
        job = self._find_job(request)
        return protocol.ok_response(**job.status_dict())

    async def _op_result(self, request: dict) -> dict:
        job = self._find_job(request)
        wait_s = float(request.get("wait_s", 0.0) or 0.0)
        if not job.done.is_set() and wait_s > 0:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.shield(job.done.wait()), timeout=wait_s)
        if not job.done.is_set():
            # Long-poll expired with the job still in flight: report the
            # state; the client polls again.  Not an error.
            return protocol.ok_response(**job.status_dict())
        if job.state == "failed":
            return protocol.error_from_exception(job.error)
        fields = job.status_dict()
        if job.kind == "prove" and job.envelope is not None:
            fields["envelope"] = protocol.encode_blob(job.envelope)
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

    def _register_job(self, job: Job) -> None:
        self.jobs[job.job_id] = job
        self._job_order.append(job.job_id)
        # Bounded retention: forget the oldest *finished* jobs once over
        # budget, so a long-lived daemon cannot leak envelopes.
        while len(self._job_order) > self.config.max_results:
            for i, jid in enumerate(self._job_order):
                old = self.jobs.get(jid)
                if old is None or old.done.is_set():
                    del self._job_order[i]
                    self.jobs.pop(jid, None)
                    break
            else:
                break  # everything live; retention resumes later

    def _forget_job(self, job: Job) -> None:
        self.jobs.pop(job.job_id, None)
        with contextlib.suppress(ValueError):
            self._job_order.remove(job.job_id)

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
        job.done.set()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.get()
            job.state = "running"
            job.started_at = time.monotonic()
            # shield: a cancelled dispatcher (shutdown) must not abandon
            # a job the executor thread is still running — the body
            # completes and finishes the job via call_soon_threadsafe.
            with contextlib.suppress(Exception):
                await asyncio.shield(
                    loop.run_in_executor(self._executor,
                                         self._run_job, job, loop))

    def _run_job(self, job: Job, loop: asyncio.AbstractEventLoop) -> None:
        """Job body (worker thread): lifecycle API + caches.

        Always finishes the job — the per-job Event is the contract that
        keeps clients from hanging.  Completion is marshalled back onto
        the event loop (asyncio events are not thread-safe to set).
        """
        error: Optional[BaseException] = None
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
            error = exc
        loop.call_soon_threadsafe(self._finish_job, job, error)

    def _run_prove(self, job: Job) -> None:
        from ..snark import prove

        entry = self.key_cache.get_or_build(job.circuit_id, job.preset)
        key = proof_cache_key(job.preset, job.circuit_id, entry.public,
                              job.seed)
        cached = self.proof_cache.get(key)
        if cached is not None:
            job.envelope = cached
            job.cached = True
            return
        bundle = prove(entry.pk, entry.public, entry.witness,
                       seed=job.seed, circuit_id=job.circuit_id,
                       timeout_s=job.timeout_s, attach_report=True)
        job.envelope = bundle.to_bytes()
        if bundle.report is not None:
            job.report = bundle.report.to_dict()
        self.proof_cache.put(key, job.envelope)

    def _run_verify(self, job: Job) -> None:
        from ..snark import ProofBundle, verify

        bundle = ProofBundle.from_bytes(job.envelope)
        circuit_id = job.circuit_id or bundle.circuit_id
        if not circuit_id:
            raise ConfigError(
                "envelope carries no circuit id; pass circuit_id to name "
                "the statement it proves")
        job.circuit_id = circuit_id
        job.preset = bundle.preset_name
        entry = self.key_cache.get_or_build(circuit_id, bundle.preset_name)
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
            "queue": self.queue.stats(),
            "pk_cache": self.key_cache.stats(),
            "proof_cache": self.proof_cache.stats(),
            "config": {
                "job_slots": self.config.job_slots,
                "preset": self.config.preset,
                "queue_depth": self.config.queue_depth,
                "max_per_client": self.config.max_per_client,
            },
        }


async def _serve(config: ServiceConfig) -> None:
    service = ProvingService(config)
    await service.start()
    where = (service.address if isinstance(service.address, str)
             else "%s:%d" % tuple(service.address))
    print(f"repro serve: listening on {where} "
          f"(pid {os.getpid()}, queue {config.queue_depth}, "
          f"job slots {config.job_slots}, preset {config.preset})",
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
