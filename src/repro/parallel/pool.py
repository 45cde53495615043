"""Process pool that proves independent proof jobs in parallel.

The functional prover's one unit of parallelism is the **proof job**:
whole proofs share nothing, so :func:`repro.snark.api.prove_many` hands
a batch to a :class:`ProverPool` and each worker *process* (the prover
is CPU-bound Python/numpy, so threads would serialize on the GIL) proves
one statement end to end with the ordinary serial kernels.

**A batch is a fork.**  :meth:`ProverPool.prove_batch` starts its
workers for that one batch with the proving key and the jobs' inputs as
the executor's ``initargs``: under ``fork`` the workers simply inherit
them — nothing is pickled, the key's pages and its gather plans are the
parent's own — and where the platform has no ``fork`` the same statement
pickles them once per worker.  Only ``(job index, seed)`` goes down the
pipe and only envelope bytes come back, and the workers end with the
call: a pool object holds no process, no segment and no cache, so there
is nothing to warm, close or leak.  (The shared-memory transport, the
persistent pool and the restart/backoff supervisor this replaced bought
nothing the benchmark could see; decision record in
``docs/PERFORMANCE.md``.)

Determinism contract: a job is a pure function of its arguments and
results are assembled in submission order, so proof bytes are
**bit-identical at any worker count**, including the in-process path
taken when there is no pool or one job.

Supervision is one rule (``docs/ROBUSTNESS.md``): a job whose worker
**died or hung** gets exactly one more round on fresh workers; a job
that **raised** is not re-run on workers; whatever still has no bytes
goes back to ``prove_many`` as its exception and is re-proved *in the
calling process*, which is bit-identical, so a crashing worker fleet
costs latency but never correctness.  Deadlines
(:mod:`repro.parallel.deadline`) are the one thing recovery never
overrides: an expired budget kills the workers and raises
:class:`~repro.errors.ProverTimeoutError`.

Because a batch forks, call ``prove_many`` from a thread that holds no
locks other threads need.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ProverTimeoutError, WorkerCrashError
from ..obs.events import FLIGHT as _FLIGHT
from . import kernels
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


def _kill_workers(executor: ProcessPoolExecutor) -> None:
    """SIGKILL every worker of ``executor``: a hung worker would block
    the ``with`` block's ``shutdown(wait=True)`` forever, a dead fleet
    makes it return at once."""
    for proc in list((getattr(executor, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except (OSError, ValueError, AttributeError):
            pass


class ProverPool:
    """How many worker processes a batch may fork, and how long they may
    go without finishing anything::

        bundles = prove_many(pk, jobs, pool=ProverPool(4))

    ``workers=None`` uses :func:`usable_cpus`; with ``workers <= 1``
    :meth:`prove_batch` hands the batch back to the caller.
    ``stall_timeout_s`` is the stall watchdog: if *no* job completes for
    that long the workers are presumed hung and killed.  It is
    deliberately generous — any single completion resets the clock, so a
    slow-but-progressing batch is never shot — and an active deadline
    clamps every wait anyway.
    """

    def __init__(self, workers: Optional[int] = None,
                 stall_timeout_s: float = 600.0):
        if workers is None:
            workers = usable_cpus()
        self.workers = max(1, int(workers))
        self.stall_timeout_s = float(stall_timeout_s)

    @property
    def is_serial(self) -> bool:
        return self.workers <= 1

    def _degraded(self, exc: BaseException) -> None:
        """Account one job re-proved in the calling process after its
        worker failed (the rerun is bit-identical: latency only)."""
        _FLIGHT.record("degradation", kernel="prove_job",
                       error=type(exc).__name__)

    def prove_batch(self, pk, publics: Sequence[np.ndarray],
                    witnesses: Sequence[np.ndarray], seeds: Sequence,
                    circuit_id: str = "",
                    timeout_s: Optional[float] = None) -> Optional[List]:
        """Prove job ``j = (publics[j], witnesses[j], seeds[j])`` of one
        batch on freshly started workers; returns, in job order, each
        job's envelope bytes or the exception it ended with.

        Returns ``None`` — "prove it yourself" — when fan-out has nothing
        to offer: a serial pool or fewer than two jobs.
        """
        if self.is_serial or len(seeds) < 2:
            return None
        check_deadline("parallel.prove_batch")
        # Build the key's gather plans here, once: every worker of this
        # and later batches inherits them instead of rebuilding its own.
        pk.r1cs._stacked()
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        results: List = [None] * len(seeds)
        lost = list(range(len(seeds)))
        for second_round in (False, True):
            if second_round:
                _FLIGHT.record("worker_restart", jobs=len(lost),
                               workers=self.workers)
            jobs, lost = lost, []
            with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(jobs)), mp_context=ctx,
                    initializer=kernels.park_batch,
                    initargs=(pk, publics, witnesses)) as executor:
                pending = {executor.submit(kernels.prove_job, j, seeds[j],
                                           circuit_id, timeout_s): j
                           for j in jobs}
                while pending:
                    timeout = self.stall_timeout_s
                    rem = _deadline_remaining()
                    if rem is not None:
                        timeout = min(timeout, max(0.0, rem))
                    done, _ = wait(pending, timeout=timeout,
                                   return_when=FIRST_COMPLETED)
                    if not done:
                        _kill_workers(executor)
                        check_deadline("parallel.dispatch")
                        # Nothing finished inside the watchdog window:
                        # presume the workers hung.
                        _FLIGHT.record("dispatch_stall", pending=len(pending),
                                       window_s=self.stall_timeout_s)
                        lost.extend(pending.values())
                        break
                    for fut in done:
                        j = pending.pop(fut)
                        try:
                            results[j] = fut.result()
                        except BrokenExecutor:
                            lost.append(j)  # a worker died under the fleet
                        except Exception as exc:  # noqa: BLE001 - per job
                            results[j] = exc
                            # A job's own spent budget is its answer,
                            # not an incident.
                            if not isinstance(exc, ProverTimeoutError):
                                _FLIGHT.record("task_error",
                                               error=type(exc).__name__)
            if not lost:
                break
        for j in lost:
            results[j] = WorkerCrashError(
                "proof job lost to worker death or stall in both rounds")
        return results


# Forced vestiges: ``bench/`` imports both and may not change yet
# (ROADMAP item 2a).  Nothing in ``src/`` calls them.

def get_pool(workers: Optional[int] = None) -> Optional[ProverPool]:
    """``ProverPool(workers)``, or ``None`` for fewer than two workers."""
    workers = usable_cpus() if workers is None else int(workers)
    return ProverPool(workers) if workers > 1 else None


def shutdown() -> None:
    """Nothing to stop: no worker outlives :meth:`ProverPool.prove_batch`."""
