"""Process-pool executor for the prover's embarrassingly parallel kernels.

The paper's whole acceleration argument (Sec. IV/V) rests on the
Spartan+Orion workload being data-parallel: Merkle column hashes are
independent, per-row RS encodes are independent, and whole proof jobs
share nothing.  :class:`ProverPool` exploits the same structure in the
functional layer with a pool of worker *processes* (the kernels are
CPU-bound Python/numpy, so threads would serialize on the GIL):

* :meth:`hash_columns` / :meth:`hash_layer` — Merkle leaf and layer
  hashing, chunked by column / node range,
* :meth:`encode_rows` — per-row Reed-Solomon NTT encodes, chunked by row
  range,
* :meth:`stream_encode_hash` — the tiled commit pipeline: row tiles are
  encoded into a shared ring buffer, copied into the codeword matrix and
  folded into per-column hash chains, so transients stay one tile wide,
* :meth:`run` — the generic ordered fan-out used by
  :func:`repro.snark.api.prove_many` for independent proof jobs.

Dispatch is **zero-copy** by default: operands live in named
shared-memory segments (:mod:`repro.parallel.shm`) and workers attach by
``(name, shape, dtype)`` descriptor, writing results into preallocated
shared output buffers.  ``REPRO_PARALLEL_NO_SHM=1`` falls back to the
original pickled dispatch (for platforms without usable POSIX shm); both
paths are bit-identical.

Pools are meant to be **persistent**: :func:`get_pool` returns a lazily
created process-wide pool that stays warm across ``prove`` /
``prove_many`` / bench runs (module :func:`shutdown` and an ``atexit``
hook tear it down).  A pool calibrates itself with a one-shot per-worker
dispatch-cost probe and then *auto-selects chunk sizes*: a kernel call
whose estimated serial time cannot amortize at least
:data:`BREAK_EVEN_DISPATCHES` probe round-trips per chunk simply runs
inline — fan-out never makes a call slower than serial by more than the
probe's own noise.

Determinism contract: every kernel chunk is a pure function and results
are assembled in submission order, so outputs — and therefore proof
bytes — are **bit-identical at any worker count**, including the serial
fallback taken when ``workers <= 1`` and the auto-chunk inline fallback.

Dispatch is **supervised** (see :class:`FaultPolicy` and
``docs/ROBUSTNESS.md``): worker death, hung dispatches, and in-task
exceptions are detected by :meth:`ProverPool._supervised_map`, which
restarts the executor with capped exponential backoff and retries the
failed chunks.  When the retry budget is exhausted the kernel entry
points *degrade* — they rerun the whole call on the in-process serial
path, which is bit-identical, so a crashing worker fleet costs latency
but never correctness.  Deadlines (:mod:`repro.parallel.deadline`) are
the one thing degradation never overrides: an expired budget raises
:class:`~repro.errors.ProverTimeoutError` and stops the engine.
Orphaned shared-memory segments left by SIGKILLed former selves are
reclaimed by a janitor sweep (:func:`repro.parallel.shm.reclaim_orphans`)
every time an executor is (re)built.

When the parent is tracing (:func:`repro.obs.tracing`), each chunk runs
under a worker-local tracer; its spans and counter deltas are shipped
back with the result and merged into the parent tracer, where the worker
appears as an extra pid in the exported Chrome trace.
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
from ..hashing import fieldhash
from ..obs.events import FLIGHT as _FLIGHT
from ..obs.metrics import METRICS as _METRICS
from ..pcs.orion import STREAM_TILE_ROWS, encode_fold_tiles
from . import kernels, shm
from .deadline import check_deadline
from .deadline import remaining as _deadline_remaining

#: Smallest per-chunk work units below which fan-out overhead (descriptor
#: dispatch, attach) exceeds the kernel time; chunks never shrink below
#: these even when the dispatch probe suggests smaller.
MIN_ENCODE_ROWS_PER_CHUNK = 4
MIN_HASH_COLS_PER_CHUNK = 64
#: Minimum *output* nodes for a Merkle layer to be worth fanning out.
MIN_LAYER_NODES = 2048

#: A dispatched chunk must carry at least this many dispatch round-trips
#: worth of estimated kernel work, or the call stays serial (break-even
#: model; see docs/PERFORMANCE.md).
BREAK_EVEN_DISPATCHES = 4.0

#: Fallback dispatch cost before the probe has run (a conservative 1 ms).
DEFAULT_DISPATCH_COST_S = 1e-3

#: Calibration constants for the break-even model: rough serial cost per
#: item element on commodity CPUs.  Order-of-magnitude is all the model
#: needs — the measured dispatch cost is the precise side of the ratio.
EST_ENCODE_S_PER_CELL = 2.5e-7    # per message matrix cell (NTT amortized)
EST_HASH_S_PER_CELL = 3.0e-7      # per matrix cell hashed into a leaf
EST_LAYER_S_PER_NODE = 1.2e-6     # per Merkle combine output node

#: Ring slots reused across the tiled commit's tiles (allocate once).
STREAM_RING_SLOTS = 2


@dataclass(frozen=True)
class FaultPolicy:
    """How the pool supervisor reacts to worker failures.

    ``max_retries`` bounds how many times a failed chunk batch is
    resubmitted (each broken-executor round costs one restart with
    ``min(backoff_cap_s, backoff_base_s * 2**attempt)`` of backoff)
    before the failure escalates as
    :class:`~repro.errors.WorkerCrashError` and the kernel wrappers
    degrade to serial.  ``dispatch_timeout_s`` is the stall watchdog: if
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
    """Warm a worker: import kernel modules and prime NTT root caches.

    Under ``fork`` this is mostly a no-op (state is inherited); under
    ``spawn`` it front-loads the import and twiddle-table cost so the
    first real chunk is not an outlier.
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
    """A pool of prover worker processes with a bit-identical serial fallback.

    Long-lived use goes through :func:`get_pool` (process-wide warm pool);
    scoped use works as a context manager::

        with ProverPool(workers=4) as pool:
            bundle = prove(pk, public, witness, pool=pool)

    ``workers=None`` uses ``os.cpu_count()``; ``workers <= 1`` makes
    every method execute inline on the calling process — the exact serial
    code path, byte for byte.  ``auto_chunk=False`` disables the
    break-even model so every eligible call fans out (tests use this to
    force worker traffic at small sizes).
    """

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 warm_root_sizes: Tuple[int, ...] = (1 << 10, 1 << 12),
                 auto_chunk: bool = True,
                 fault_policy: Optional[FaultPolicy] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self.auto_chunk = auto_chunk
        self.fault_policy = (fault_policy if fault_policy is not None
                             else DEFAULT_FAULT_POLICY)
        self._start_method = start_method
        self._warm_root_sizes = tuple(warm_root_sizes)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._arena: Optional[shm.ShmArena] = None
        self._dispatch_cost_s: Optional[float] = None
        self._warm_s: Optional[float] = None
        self._broadcasts: dict = {}   # id(obj) -> (obj, token, BlobDesc)

    # -- lifecycle ---------------------------------------------------------
    @property
    def is_serial(self) -> bool:
        return self.workers <= 1

    @property
    def job_fanout_pays(self) -> bool:
        """Whether dispatching whole proof jobs to workers can win here.

        Proof jobs are CPU-bound, so job-level fan-out needs real cores:
        on a single-core host concurrent resident provers just
        time-slice the one core and pay context-switch plus
        cache-interference costs (measured ~15-20% at 2^20), so
        ``prove_many`` stays inline there.  ``auto_chunk=False`` forces
        fan-out regardless, mirroring its meaning for kernel chunking
        (tests use it to exercise the dispatch machinery on any host).
        """
        if self.is_serial:
            return False
        return not self.auto_chunk or (os.cpu_count() or 1) >= 2

    @property
    def use_shm(self) -> bool:
        """True when this pool dispatches via shared memory (re-read per
        call so ``REPRO_PARALLEL_NO_SHM`` can flip at runtime)."""
        return shm.shm_enabled()

    @property
    def dispatch_cost_s(self) -> float:
        """Measured per-task round-trip cost (probe), or the default."""
        return (self._dispatch_cost_s if self._dispatch_cost_s is not None
                else DEFAULT_DISPATCH_COST_S)

    @property
    def warm_s(self) -> Optional[float]:
        """Wall seconds the one-time warm-up (spawn + probe) took."""
        return self._warm_s

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
        the retry path can resubmit the same chunks.
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

    def warm(self) -> None:
        """Spawn the workers and run the one-shot dispatch-cost probe.

        Idempotent; a warm pool answers its first real kernel call at
        steady-state cost.  The probe times ``2 * workers`` no-op tasks
        round-trip and records the per-task cost that the break-even
        chunk model divides against.
        """
        if self.is_serial or self._dispatch_cost_s is not None:
            return
        t0 = time.perf_counter()
        ex = self._ensure_executor()
        n_tasks = 2 * self.workers
        list(ex.map(_call_task,
                    [(kernels.probe_noop, (), False)] * n_tasks))
        elapsed = time.perf_counter() - t0
        # First tasks pay process spawn; probe again on the warm workers.
        t0 = time.perf_counter()
        list(ex.map(_call_task,
                    [(kernels.probe_noop, (), False)] * n_tasks))
        self._dispatch_cost_s = max(1e-6,
                                    (time.perf_counter() - t0) / n_tasks)
        self._warm_s = elapsed + (time.perf_counter() - t0)
        _METRICS.gauge("parallel.dispatch_cost_s", self._dispatch_cost_s)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        self._broadcasts.clear()
        self._dispatch_cost_s = None
        self._warm_s = None

    #: Alias used by the lifecycle docs; identical to :meth:`close`.
    shutdown = close

    def __enter__(self) -> "ProverPool":
        if not self.is_serial:
            self._ensure_executor()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- chunk selection ---------------------------------------------------
    def chunk_ranges(self, n: int, min_per_chunk: int = 1
                     ) -> List[Tuple[int, int]]:
        """Split ``range(n)`` into at most ``workers`` contiguous,
        near-equal ranges of at least ``min_per_chunk`` items."""
        if n <= 0:
            return []
        num = min(self.workers, max(1, n // max(1, min_per_chunk)))
        base, extra = divmod(n, num)
        ranges, lo = [], 0
        for k in range(num):
            hi = lo + base + (1 if k < extra else 0)
            ranges.append((lo, hi))
            lo = hi
        return ranges

    def auto_chunk_ranges(self, n: int, item_cost_s: float,
                          min_per_chunk: int = 1
                          ) -> Optional[List[Tuple[int, int]]]:
        """Break-even chunking: ranges worth dispatching, or ``None``.

        Using the probe's measured dispatch cost ``d``, the call fans out
        only if the estimated serial time ``n * item_cost_s`` funds at
        least two chunks each carrying :data:`BREAK_EVEN_DISPATCHES`
        dispatches' worth of work; below that, ``None`` tells the caller
        to run inline.  The chunk count is monotone non-decreasing in
        ``n`` (for fixed costs), so growing inputs never fan out *less*.
        """
        if n <= 0:
            return []
        if not self.auto_chunk:
            return self.chunk_ranges(n, min_per_chunk)
        self.warm()
        budget = BREAK_EVEN_DISPATCHES * self.dispatch_cost_s
        max_chunks = int(n * max(item_cost_s, 1e-12) // budget)
        if max_chunks < 2:
            return None
        num = min(self.workers, max_chunks)
        per_chunk = max(min_per_chunk, -(-n // num))
        return self.chunk_ranges(n, per_chunk)

    # -- generic fan-out ---------------------------------------------------
    def run(self, fn: Callable, tasks: Sequence[tuple],
            return_exceptions: bool = False) -> List:
        """Execute ``fn(*task)`` for every task, returning results in
        submission order.

        Serial pools — and single-task calls, where fan-out buys nothing —
        execute inline so the active tracer and metrics registry see the
        work directly.  Parallel execution ships each chunk's worker-side
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
          executor is killed, rebuilt after backoff, and the lost chunks
          are resubmitted.
        * **stall**: nothing at all completes within
          ``fault_policy.dispatch_timeout_s`` (any single completion
          resets the watchdog).  The outstanding workers are presumed
          hung, killed, and the chunks retried on a fresh fleet.
        * **in-task exception**: the chunk itself raised.  Retried
          without a restart (transient faults — and the chaos harness's
          injected ones — fire once); a *persistent* exception exhausts
          the retry budget and escalates.

        Escalation wraps the last underlying failure in
        :class:`~repro.errors.WorkerCrashError` so kernel wrappers can
        catch one type and degrade to serial.  An active deadline clamps
        every wait; expiry kills the executor (abandoned chunks must not
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

    def _degraded(self, kernel: str, exc: BaseException) -> None:
        """Account one graceful degradation to the in-process serial path
        (the serial rerun is bit-identical, so this costs latency only)."""
        _METRICS.inc("parallel.degradations")
        _METRICS.inc(f"parallel.degradations.{kernel}")
        _FLIGHT.record("degradation", kernel=kernel,
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

    # -- kernel-specific entry points --------------------------------------
    def encode_rows(self, code, matrix: np.ndarray) -> np.ndarray:
        """Reed-Solomon-encode every matrix row, chunked across workers.

        Falls back to the in-process batched encode when the pool is
        serial or the break-even model says the matrix is too small to
        amortize the fan-out.  The shm path shares the message matrix
        once and has workers write into a preallocated shared codeword
        buffer; only descriptors cross the pipe.
        """
        matrix = np.asarray(matrix, dtype=np.uint64)
        rows = matrix.shape[0] if matrix.ndim == 2 else 0
        if self.is_serial or rows < 2 * MIN_ENCODE_ROWS_PER_CHUNK:
            return code.encode_rows(matrix)
        ranges = self.auto_chunk_ranges(
            rows, EST_ENCODE_S_PER_CELL * matrix.shape[1],
            MIN_ENCODE_ROWS_PER_CHUNK)
        if ranges is None:
            return code.encode_rows(matrix)
        try:
            if not self.use_shm:
                _METRICS.inc("parallel.bytes_pickled",
                             matrix.nbytes + code.blowup * matrix.nbytes)
                parts = self.run(kernels.encode_chunk,
                                 [(code, matrix[lo:hi])
                                  for lo, hi in ranges])
                return np.vstack(parts)
            arena = self.arena()
            in_desc = arena.share_array(matrix)
            out_desc = arena.alloc_array(
                (rows, code.codeword_length(matrix.shape[1])), "uint64")
            try:
                self.run(kernels.encode_chunk_shm,
                         [(code, in_desc, out_desc, lo, hi)
                          for lo, hi in ranges])
                return np.array(arena.view(out_desc))
            finally:
                arena.free(in_desc)
                arena.free(out_desc)
        except (WorkerCrashError, shm.ShmError) as exc:
            self._degraded("rs_encode", exc)
            return code.encode_rows(matrix)

    def hash_columns(self, matrix: np.ndarray) -> List[bytes]:
        """Merkle leaf digests of every matrix column, chunked by column."""
        matrix = np.asarray(matrix, dtype=np.uint64)
        cols = matrix.shape[1] if matrix.ndim == 2 else 0
        if self.is_serial or cols < 2 * MIN_HASH_COLS_PER_CHUNK:
            return fieldhash.hash_columns(matrix)
        ranges = self.auto_chunk_ranges(
            cols, EST_HASH_S_PER_CELL * matrix.shape[0],
            MIN_HASH_COLS_PER_CHUNK)
        if ranges is None:
            return fieldhash.hash_columns(matrix)
        try:
            if not self.use_shm:
                _METRICS.inc("parallel.bytes_pickled", matrix.nbytes)
                parts = self.run(kernels.hash_columns_chunk,
                                 [(np.ascontiguousarray(matrix[:, lo:hi]),)
                                  for lo, hi in ranges])
                return [d for part in parts for d in part]
            arena = self.arena()
            in_desc = arena.share_array(matrix)
            out_desc = arena.alloc_array((cols, fieldhash.DIGEST_BYTES),
                                         "uint8")
            try:
                self.run(kernels.hash_columns_chunk_shm,
                         [(in_desc, out_desc, lo, hi) for lo, hi in ranges])
                raw = arena.view(out_desc).tobytes()
            finally:
                arena.free(in_desc)
                arena.free(out_desc)
            return [raw[i : i + fieldhash.DIGEST_BYTES]
                    for i in range(0, len(raw), fieldhash.DIGEST_BYTES)]
        except (WorkerCrashError, shm.ShmError) as exc:
            self._degraded("merkle_leaves", exc)
            return fieldhash.hash_columns(matrix)

    def hash_layer(self, raw: bytes) -> Optional[bytes]:
        """One Merkle layer combine step, chunked by output-node range.

        Returns ``None`` when the layer is below the fan-out threshold so
        the caller's serial loop (which also does the metrics accounting)
        handles it.
        """
        out_nodes = len(raw) // (2 * fieldhash.DIGEST_BYTES)
        if self.is_serial or out_nodes < MIN_LAYER_NODES:
            return None
        ranges = self.auto_chunk_ranges(out_nodes, EST_LAYER_S_PER_NODE,
                                        MIN_LAYER_NODES // self.workers)
        if ranges is None:
            return None
        pair = 2 * fieldhash.DIGEST_BYTES
        try:
            if not self.use_shm:
                _METRICS.inc("parallel.bytes_pickled", len(raw) * 3 // 2)
                parts = self.run(kernels.hash_layer_chunk,
                                 [(raw[lo * pair : hi * pair],)
                                  for lo, hi in ranges])
                return b"".join(parts)
            arena = self.arena()
            in_desc = arena.share_array(np.frombuffer(raw, dtype=np.uint8))
            out_desc = arena.alloc_array((len(raw) // 2,), "uint8")
            try:
                self.run(kernels.hash_layer_chunk_shm,
                         [(in_desc, out_desc, lo, hi) for lo, hi in ranges])
                return arena.view(out_desc).tobytes()
            finally:
                arena.free(in_desc)
                arena.free(out_desc)
        except (WorkerCrashError, shm.ShmError) as exc:
            # None = "caller's serial loop handles this layer" — the
            # same degradation contract the size threshold already uses.
            self._degraded("merkle_layer", exc)
            return None

    # -- streaming commit pipeline -----------------------------------------
    def stream_encode_hash(self, code, matrix: np.ndarray,
                           codewords: np.ndarray) -> bytes:
        """The tiled commit (:func:`repro.pcs.orion.encode_fold_tiles`)
        with each tile's encode and fold fanned out across workers.

        Tiles are encoded into a shared ring buffer (slots reused
        round-robin), copied out into the preallocated ``codewords`` and
        folded into per-column hash chains; returns the flat leaf digests
        :func:`~repro.hashing.fieldhash.hash_columns` gives for
        ``codewords``.  Shared memory held is
        ``O(ring slots * tile bytes + 32 bytes/column)`` at any table
        size.  Serial pools run the in-process loop; either way codewords
        and digests are byte-identical to the one-shot path.
        """
        rows, cw_len = codewords.shape
        _METRICS.gauge("pcs.stream_tile_bytes", STREAM_TILE_ROWS * cw_len * 8)
        if self.is_serial or not self.use_shm:
            return encode_fold_tiles(code, matrix, codewords)
        try:
            self.warm()
            arena = self.arena()
            chains = fieldhash.ColumnChainHasher(cw_len, rows)
            slots = [arena.alloc_array((STREAM_TILE_ROWS, cw_len), "uint64")
                     for _ in range(STREAM_RING_SLOTS)]
            state_desc = arena.alloc_array((cw_len, fieldhash.DIGEST_BYTES),
                                           "uint8")
            try:
                col_ranges = self.chunk_ranges(cw_len,
                                               MIN_HASH_COLS_PER_CHUNK)
                for t, lo in enumerate(range(0, rows, STREAM_TILE_ROWS)):
                    hi = min(rows, lo + STREAM_TILE_ROWS)
                    slot = slots[t % STREAM_RING_SLOTS]
                    # Encode the tile's rows into the ring slot...
                    row_ranges = self.chunk_ranges(hi - lo,
                                                   MIN_ENCODE_ROWS_PER_CHUNK)
                    in_desc = arena.share_array(matrix[lo:hi])
                    try:
                        with obs.span("rs.encode", "rs_encode", rows=hi - lo):
                            self.run(kernels.encode_chunk_shm,
                                     [(code, in_desc, slot, rlo, rhi)
                                      for rlo, rhi in row_ranges])
                            codewords[lo:hi] = arena.view(slot)[: hi - lo]
                    finally:
                        arena.free(in_desc)
                    # ...and fold it into the shared chain state by columns.
                    with obs.span("merkle.fold", "merkle", rows=hi - lo):
                        self.run(kernels.fold_chunk_shm,
                                 [(slot, state_desc, clo, chi, hi - lo,
                                   chains.words_done)
                                  for clo, chi in col_ranges])
                        chains.state[...] = arena.view(state_desc)
                    chains.rows_fed += hi - lo
                    chains.words_done += -(-(hi - lo)
                                           // fieldhash.ELEMENTS_PER_WORD)
                return chains.finalize()
            finally:
                for slot in slots:
                    arena.free(slot)
                arena.free(state_desc)
        except (WorkerCrashError, shm.ShmError) as exc:
            # A chain fold may have been half-applied when the fleet
            # died, so the partial state is unusable: rerun the whole
            # tile loop in-process (it overwrites every codeword row).
            self._degraded("stream_commit", exc)
            return encode_fold_tiles(code, matrix, codewords)


# ---------------------------------------------------------------------------
# The persistent process-wide pool
# ---------------------------------------------------------------------------

_GLOBAL_POOL: Optional[ProverPool] = None


def get_pool(workers: Optional[int] = None) -> Optional[ProverPool]:
    """The process-wide warm :class:`ProverPool`, created lazily.

    Successive calls with the same effective worker count return the SAME
    pool — worker processes, NTT caches, the dispatch-probe calibration,
    and broadcast proving keys all stay warm across ``prove`` /
    ``prove_many`` / bench invocations.  Asking for a different count
    shuts the old pool down and builds a new one.  ``workers`` of 0 or 1
    returns ``None`` (the serial path needs no pool).  Tear down
    explicitly with :func:`shutdown`; an ``atexit`` hook guarantees it
    regardless.
    """
    global _GLOBAL_POOL
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, int(workers))
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
