"""Process pool that proves independent proof jobs in parallel.

The functional prover's one unit of parallelism is the **proof job**:
whole proofs share nothing, so :func:`repro.snark.api.prove_many` hands
a batch to a :class:`ProverPool` and each worker *process* (the prover
is CPU-bound Python/numpy, so threads would serialize on the GIL) proves
one statement end to end with the ordinary serial kernels.  Fan-out
*inside* one proof — chunked RS encodes, Merkle hashing, a tiled commit
pipeline — was measured on 2 and 4 cores, never paid, and is gone
(decision record in ``docs/PERFORMANCE.md``).

* :meth:`ProverPool.prove_batch` stages one batch: the proving key is
  broadcast into shared memory once (:mod:`repro.parallel.shm`), the
  jobs' public inputs and witnesses are stacked into two shared arrays,
  and workers attach by ``(name, shape, dtype)`` descriptor — only
  descriptors go down the pipe and only envelope bytes come back.
* :meth:`ProverPool.run` is the ordered, supervised fan-out under it.

Pools are meant to be **persistent**: :func:`get_pool` returns a lazily
created process-wide pool that stays warm across ``prove_many`` / bench
runs (module :func:`shutdown` and an ``atexit`` hook tear it down).

Determinism contract: a job is a pure function of its arguments and
results are assembled in submission order, so proof bytes are
**bit-identical at any worker count**, including the in-process path
taken when there is no pool, one job, or no usable shared memory.

Dispatch is **supervised** (see :class:`FaultPolicy` and
``docs/ROBUSTNESS.md``): worker death, hung dispatches, and in-task
exceptions are detected by :meth:`ProverPool._supervised_map`, which
restarts the executor with capped exponential backoff and retries the
failed jobs.  A job that still fails comes back to ``prove_many`` as its
exception and is re-proved *in the calling process*, which is
bit-identical, so a crashing worker fleet costs latency but never
correctness.  Deadlines (:mod:`repro.parallel.deadline`) are the one
thing that recovery never overrides: an expired budget raises
:class:`~repro.errors.ProverTimeoutError` and stops the engine.
Orphaned shared-memory segments left by SIGKILLed former selves are
reclaimed by a janitor sweep (:func:`repro.parallel.shm.reclaim_orphans`)
every time an executor is (re)built.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import ProverTimeoutError, WorkerCrashError
from ..obs.events import FLIGHT as _FLIGHT
from ..obs.metrics import METRICS as _METRICS
from . import kernels, shm
from .deadline import check_deadline
from .deadline import remaining as _deadline_remaining


def usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the platform
    has one (a container pinned to 1 CPU of 64 reads 1, not 64), else
    ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True)
class FaultPolicy:
    """How the pool supervisor reacts to worker failures.

    ``max_retries`` bounds how many times a failed batch of jobs is
    resubmitted (each broken-executor round costs one restart with
    ``min(backoff_cap_s, backoff_base_s * 2**attempt)`` of backoff)
    before the failure escalates as
    :class:`~repro.errors.WorkerCrashError` and ``prove_many`` re-proves
    the job in-process.  ``dispatch_timeout_s`` is the stall watchdog: if
    *nothing* completes for that long the outstanding workers are
    presumed hung and killed.  It is deliberately generous — any single
    completion resets the clock, so a slow-but-progressing batch is
    never shot — and the per-job/per-call deadline
    (:mod:`repro.parallel.deadline`) clamps every wait anyway.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    dispatch_timeout_s: float = 600.0


#: Default supervision policy shared by every pool that does not ask for
#: a custom one.
DEFAULT_FAULT_POLICY = FaultPolicy()


def _worker_init(root_sizes: Tuple[int, ...]) -> None:
    """Warm a worker: import the prover and prime NTT root caches.

    Under ``fork`` this is mostly a no-op (state is inherited); under
    ``spawn`` it front-loads the import and twiddle-table cost so the
    first real job is not an outlier.
    """
    from ..ntt import roots

    for n in root_sizes:
        roots.primitive_root(n)
        roots.bit_reverse_indices(n)


def _call_task(payload):
    """Run one (fn, args, trace) task, optionally under a local tracer."""
    fn, args, trace = payload
    if not trace:
        return fn(*args), None
    tracer = obs.start_trace()
    try:
        result = fn(*args)
    finally:
        obs.stop_trace()
    counters = tracer.metrics_snapshot.get("counters", {})
    # Histograms observed worker-side (a worker's own prove_seconds in
    # job fan-out) ship as (name, labels, dict) triples for bucket-wise
    # merge into the parent registry.
    hists = [(name, list(labels), hist.to_dict())
             for (name, labels), hist in obs.METRICS.histograms().items()]
    return result, (os.getpid(), tracer.records(), counters,
                    tracer.start_abs, hists)


class ProverPool:
    """A pool of prover worker processes, one whole proof job per task.

    Long-lived use goes through :func:`get_pool` (process-wide warm pool);
    scoped use works as a context manager::

        with ProverPool(workers=4) as pool:
            bundles = prove_many(pk, jobs, pool=pool)

    ``workers=None`` uses :func:`usable_cpus`; with ``workers <= 1``
    :meth:`run` executes inline on the calling process and
    :meth:`prove_batch` hands the batch back to the caller.
    """

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 warm_root_sizes: Tuple[int, ...] = (1 << 10, 1 << 12),
                 fault_policy: Optional[FaultPolicy] = None):
        if workers is None:
            workers = usable_cpus()
        self.workers = max(1, int(workers))
        self.fault_policy = (fault_policy if fault_policy is not None
                             else DEFAULT_FAULT_POLICY)
        self._start_method = start_method
        self._warm_root_sizes = tuple(warm_root_sizes)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._arena: Optional[shm.ShmArena] = None
        self._broadcasts: dict = {}   # id(obj) -> (obj, token, BlobDesc)

    # -- lifecycle ---------------------------------------------------------
    @property
    def is_serial(self) -> bool:
        return self.workers <= 1

    def _mp_context(self):
        import multiprocessing as mp

        if self._start_method is not None:
            return mp.get_context(self._start_method)
        # fork shares the parent's imported modules and twiddle caches as
        # read-only pages; fall back to spawn (+ pickled init) elsewhere.
        methods = mp.get_all_start_methods()
        return mp.get_context("fork" if "fork" in methods else "spawn")

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Sweep segments orphaned by SIGKILLed predecessors before
            # starting workers, so a crash-looping service cannot leak
            # /dev/shm to exhaustion across its own restarts.
            shm.reclaim_orphans()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._mp_context(),
                initializer=_worker_init,
                initargs=(self._warm_root_sizes,))
        return self._executor

    def _kill_executor(self) -> None:
        """Tear the executor down *hard* (SIGKILL), tolerating any state.

        Used by the supervisor when workers are dead or presumed hung —
        a graceful ``shutdown(wait=True)`` would block forever on a
        stalled worker.  The arena (and any broadcast blobs in it) is
        deliberately preserved: in-flight descriptors must stay valid so
        the retry path can resubmit the same jobs.
        """
        ex, self._executor = self._executor, None
        if ex is None:
            return
        procs = list((getattr(ex, "_processes", None) or {}).values())
        for proc in procs:
            try:
                proc.kill()
            except (OSError, ValueError, AttributeError):
                pass
        try:
            ex.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - executor may be broken mid-way
            pass
        for proc in procs:
            try:
                proc.join(timeout=1.0)
            except (OSError, ValueError, AssertionError):
                pass

    def _restart_workers(self, attempt: int) -> None:
        """Replace a broken/hung executor, backing off exponentially."""
        self._kill_executor()
        delay = min(self.fault_policy.backoff_cap_s,
                    self.fault_policy.backoff_base_s * (2 ** attempt))
        if delay > 0:
            time.sleep(delay)
        _METRICS.inc("parallel.worker_restarts")
        _FLIGHT.record("worker_restart", attempt=attempt, backoff_s=delay,
                       workers=self.workers)
        self._ensure_executor()

    def arena(self) -> shm.ShmArena:
        """The pool-owned shared-memory arena (created on first use)."""
        if self._arena is None or self._arena.closed:
            self._arena = shm.ShmArena(prefix="repro_pool")
        return self._arena

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self._broadcasts.clear()

    #: Alias used by the lifecycle docs; identical to :meth:`close`.
    shutdown = close

    def __enter__(self) -> "ProverPool":
        if not self.is_serial:
            self._ensure_executor()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- generic fan-out ---------------------------------------------------
    def run(self, fn: Callable, tasks: Sequence[tuple],
            return_exceptions: bool = False) -> List:
        """Execute ``fn(*task)`` for every task, returning results in
        submission order.

        Serial pools — and single-task calls, where fan-out buys nothing —
        execute inline so the active tracer and metrics registry see the
        work directly.  Parallel execution ships each task's worker-side
        spans/counters back and merges them into the active tracer.

        Dispatch is supervised (worker death, stalls, and in-task
        exceptions are retried under :attr:`fault_policy`); a failure
        that survives the retry budget raises
        :class:`~repro.errors.WorkerCrashError` — or, with
        ``return_exceptions=True``, is returned *positionally* as the
        exception object so batch callers can report per-task outcomes.
        """
        check_deadline("parallel.run")
        if self.is_serial or len(tasks) <= 1:
            if not return_exceptions:
                return [fn(*task) for task in tasks]
            results = []
            for task in tasks:
                try:
                    results.append(fn(*task))
                except Exception as exc:  # noqa: BLE001 - reported per task
                    results.append(exc)
            return results
        # Workers run under a local tracer whenever the parent wants any
        # telemetry back — a full trace, or just the metrics registry
        # (e.g. ``repro prove --metrics-out`` without --trace).
        trace = obs.get_tracer() is not None or _METRICS.enabled
        payloads = [(fn, task, trace) for task in tasks]
        _METRICS.inc("parallel.dispatches", len(tasks))
        t0 = time.perf_counter()
        outs = self._supervised_map(payloads,
                                    return_exceptions=return_exceptions)
        _METRICS.observe("dispatch_seconds", time.perf_counter() - t0)
        tracer = obs.get_tracer()
        results = []
        for out in outs:
            if isinstance(out, BaseException):
                results.append(out)
                continue
            result, meta = out
            if meta is not None:
                worker_pid, records, counters, t0_abs, hists = meta
                if tracer is not None:
                    tracer.absorb_worker(worker_pid, records, counters,
                                         start_abs=t0_abs, histograms=hists)
                elif _METRICS.enabled:
                    # Metrics-only mode: no span tree to hang worker
                    # records on, but counters and histograms still merge.
                    for name, delta in counters.items():
                        _METRICS.inc(name, delta)
                    for name, labels, data in hists:
                        _METRICS.merge_histogram(
                            name, tuple((str(k), str(v))
                                        for k, v in labels), data)
            results.append(result)
        return results

    def _supervised_map(self, payloads: Sequence, *,
                        return_exceptions: bool = False) -> List:
        """Submit every payload and shepherd the batch to completion.

        The loop distinguishes three failure classes:

        * **broken executor** (a worker died — SIGKILL, OOM, segfault):
          every in-flight future fails with ``BrokenProcessPool``; the
          executor is killed, rebuilt after backoff, and the lost tasks
          are resubmitted.
        * **stall**: nothing at all completes within
          ``fault_policy.dispatch_timeout_s`` (any single completion
          resets the watchdog).  The outstanding workers are presumed
          hung, killed, and the tasks retried on a fresh fleet.
        * **in-task exception**: the task itself raised.  Retried
          without a restart (transient faults — and the chaos harness's
          injected ones — fire once); a *persistent* exception exhausts
          the retry budget and escalates.  A task's own
          ``ProverTimeoutError`` is never retried: it is that task's
          result.

        Escalation wraps the last underlying failure in
        :class:`~repro.errors.WorkerCrashError` so callers catch one
        type before re-proving in-process.  An active deadline clamps
        every wait; expiry kills the executor (abandoned tasks must not
        linger) and raises :class:`~repro.errors.ProverTimeoutError`.
        """
        policy = self.fault_policy
        n = len(payloads)
        results: List = [None] * n
        last_exc: List[Optional[BaseException]] = [None] * n
        failed = list(range(n))
        for attempt in range(policy.max_retries + 1):
            if attempt:
                _METRICS.inc("parallel.retries", len(failed))
                _FLIGHT.record("retry", attempt=attempt,
                               chunks=len(failed))
            ex = self._ensure_executor()
            try:
                pending = {ex.submit(_call_task, payloads[i]): i
                           for i in failed}
            except (BrokenExecutor, RuntimeError) as exc:
                # Executor broke between creation and submit.
                for i in failed:
                    last_exc[i] = exc
                self._restart_workers(attempt)
                continue
            failed = []
            broken = False
            while pending:
                timeout = policy.dispatch_timeout_s
                rem = _deadline_remaining()
                if rem is not None:
                    timeout = min(timeout, max(0.0, rem))
                done, _ = wait(pending, timeout=timeout,
                               return_when=FIRST_COMPLETED)
                if not done:
                    try:
                        check_deadline("parallel.dispatch")
                    except ProverTimeoutError:
                        self._kill_executor()
                        raise
                    # A genuine stall: nothing finished inside the
                    # watchdog window.  Presume the workers hung.
                    _METRICS.inc("parallel.dispatch_stalls")
                    _FLIGHT.record("dispatch_stall",
                                   pending=len(pending),
                                   window_s=policy.dispatch_timeout_s)
                    for fut, i in pending.items():
                        fut.cancel()
                        failed.append(i)
                    broken = True
                    break
                for fut in done:
                    i = pending.pop(fut)
                    try:
                        results[i] = fut.result()
                    except BrokenExecutor as exc:
                        broken = True
                        last_exc[i] = exc
                        failed.append(i)
                    except ProverTimeoutError as exc:
                        # The task's own budget is spent: no retry can
                        # honor it, so it is this task's final answer.
                        if not return_exceptions:
                            for f in pending:
                                f.cancel()
                            raise
                        results[i] = exc
                    except (shm.ShmError, pickle.PickleError) as exc:
                        # Deterministic data-path damage (torn segment,
                        # poisoned blob): retrying replays the failure,
                        # so fail fast and let the caller degrade.
                        last_exc[i] = exc
                        failed.append(i)
                        if not return_exceptions:
                            for f in pending:
                                f.cancel()
                            raise WorkerCrashError(
                                "parallel dispatch hit unrecoverable "
                                "data corruption",
                                retries=attempt, cause=exc)
                    except Exception as exc:  # noqa: BLE001 - retried
                        last_exc[i] = exc
                        failed.append(i)
                        _FLIGHT.record("task_error",
                                       error=type(exc).__name__)
            if not failed:
                return results
            failed = sorted(set(failed))
            # Data-corruption failures under return_exceptions skip the
            # retry loop too: replaying them cannot change the outcome.
            if return_exceptions and all(
                    isinstance(last_exc[i],
                               (shm.ShmError, pickle.PickleError))
                    for i in failed):
                break
            if broken:
                if attempt < policy.max_retries:
                    self._restart_workers(attempt)
                else:
                    # Out of retries: still never hand a hung/broken
                    # executor to the next caller.
                    self._kill_executor()
        for i in failed:
            exc = last_exc[i]
            if not isinstance(exc, (shm.ShmError, pickle.PickleError)):
                exc = WorkerCrashError(
                    "parallel task failed despite supervision"
                    if exc is not None else
                    "parallel task lost to worker crash or stall",
                    retries=policy.max_retries, cause=exc)
            if not return_exceptions:
                raise exc
            results[i] = exc
        return results

    def _degraded(self, exc: BaseException) -> None:
        """Account one job re-proved in the calling process after its
        worker failed (the rerun is bit-identical: latency only)."""
        _METRICS.inc("parallel.degradations")
        _FLIGHT.record("degradation", kernel="prove_job",
                       error=type(exc).__name__)

    # -- broadcast (amortized keygen) --------------------------------------
    def broadcast(self, obj) -> Tuple[str, shm.BlobDesc]:
        """Pickle ``obj`` into shared memory ONCE and return a worker
        token + blob descriptor.

        Repeat broadcasts of the same object (``prove_many`` batches
        reusing one :class:`~repro.snark.api.ProvingKey`) return the
        cached descriptor — the pickling and placement cost is paid once
        per pool lifetime, not once per job.  A strong reference to the
        object is kept so its identity stays valid for the cache key.
        """
        key = id(obj)
        hit = self._broadcasts.get(key)
        if hit is not None and hit[0] is obj:
            return hit[1], hit[2]
        desc = self.arena().share_pickle(obj)
        kernels._maybe_fault("broadcast", desc=desc)
        token = desc.name
        self._broadcasts[key] = (obj, token, desc)
        _METRICS.inc("parallel.broadcasts")
        return token, desc

    def drop_broadcast(self, obj) -> None:
        """Evict one object's cached broadcast blob (and free its
        segment).  Called when workers report the blob unreadable —
        poisoned or torn — so the next batch re-broadcasts a clean copy
        instead of replaying the corruption forever."""
        entry = self._broadcasts.pop(id(obj), None)
        if entry is not None and self._arena is not None:
            self._arena.free(entry[2])

    # -- the one thing a pool proves: a batch of jobs ---------------------
    def prove_batch(self, pk, publics: Sequence[np.ndarray],
                    witnesses: Sequence[np.ndarray], seeds: Sequence,
                    circuit_id: str = "",
                    timeout_s: Optional[float] = None) -> Optional[List]:
        """Prove job ``j = (publics[j], witnesses[j], seeds[j])`` of one
        batch on the workers; returns, in job order, each job's envelope
        bytes or the exception it ended with after supervision.

        ``pk`` is broadcast once (cached across batches) and the jobs'
        inputs are stacked into two shared arrays that live exactly as
        long as the call.  Returns ``None`` — "prove it yourself" — when
        fan-out has nothing to offer: a serial pool, fewer than two jobs,
        or a platform without shared memory (the in-process path is the
        fallback, not a second way to dispatch).
        """
        if self.is_serial or len(seeds) < 2 or not shm.shm_supported():
            return None
        token, blob_desc = self.broadcast(pk)
        arena = self.arena()
        pub_desc = arena.share_array(np.stack(publics))
        wit_desc = arena.share_array(np.stack(witnesses))
        try:
            return self.run(kernels.prove_job,
                            [(token, blob_desc, pub_desc, wit_desc, j, seed,
                              circuit_id, timeout_s)
                             for j, seed in enumerate(seeds)],
                            return_exceptions=True)
        finally:
            arena.free(pub_desc)
            arena.free(wit_desc)


# ---------------------------------------------------------------------------
# The persistent process-wide pool
# ---------------------------------------------------------------------------

_GLOBAL_POOL: Optional[ProverPool] = None


def get_pool(workers: Optional[int] = None) -> Optional[ProverPool]:
    """The process-wide warm :class:`ProverPool`, created lazily.

    Successive calls with the same effective worker count return the SAME
    pool — worker processes, NTT caches and broadcast proving keys all
    stay warm across ``prove_many`` / bench invocations.  Asking for a
    different count shuts the old pool down and builds a new one.
    ``workers`` of 0 or 1 returns ``None`` (the in-process path needs no
    pool); ``None`` means every usable CPU.  Tear down explicitly with
    :func:`shutdown`; an ``atexit`` hook guarantees it regardless.
    """
    global _GLOBAL_POOL
    workers = usable_cpus() if workers is None else int(workers)
    if workers <= 1:
        return None
    if _GLOBAL_POOL is not None and _GLOBAL_POOL.workers == workers:
        return _GLOBAL_POOL
    if _GLOBAL_POOL is not None:
        _GLOBAL_POOL.close()
    _GLOBAL_POOL = ProverPool(workers)
    return _GLOBAL_POOL


def shutdown() -> None:
    """Tear down the process-wide pool (workers, arena, broadcasts)."""
    global _GLOBAL_POOL
    if _GLOBAL_POOL is not None:
        _GLOBAL_POOL.close()
        _GLOBAL_POOL = None


atexit.register(shutdown)
