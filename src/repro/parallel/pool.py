"""Fan a batch of independent proof jobs out to worker processes.

The functional prover's one unit of parallelism is the **proof job**:
whole proofs share nothing, so :func:`repro.snark.api.prove_many` hands
a batch to :func:`prove_batch` and each worker *process* (the prover is
CPU-bound Python/numpy, so threads would serialize on the GIL) proves
one statement end to end with the ordinary serial kernels.

**A batch is a fork.**  :func:`prove_batch` starts its workers for that
one batch with the proving key and the jobs' inputs as the executor's
``initargs`` (:func:`park_batch`): under ``fork`` the workers simply
inherit them — nothing is pickled, the key's pages and its gather plans
are the parent's own — and where the platform has no ``fork`` the same
statement pickles them once per worker.  Only ``(job index, seed)`` goes
down the pipe (:func:`prove_job`) and only envelope bytes come back, and
the workers end with the call: nothing here holds a process, a segment
or a cache, so there is nothing to warm, close or leak.  (The
shared-memory transport, the persistent pool and the restart/backoff
supervisor this replaced bought nothing the benchmark could see;
decision record in ``docs/PERFORMANCE.md``.)

Determinism contract: a job is a pure function of its arguments and
results are assembled in submission order, so proof bytes are
**bit-identical at any worker count**, including the in-process path
``prove_many`` takes for one worker or one job.

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

import os
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ProverTimeoutError, WorkerCrashError
from ..obs.events import FLIGHT as _FLIGHT
from .deadline import check_deadline
from .deadline import remaining as _deadline_remaining

#: Stall watchdog: if *no* job of a batch completes for this long its
#: workers are presumed hung and killed.  Deliberately generous — any
#: single completion resets the clock, so a slow-but-progressing batch is
#: never shot — and an active deadline clamps every wait anyway.  Read at
#: each wait, so a process may set it (the chaos harness and the fault
#: tests shorten it).
STALL_TIMEOUT_S = 600.0


def usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the platform
    has one (a container pinned to 1 CPU of 64 reads 1, not 64), else
    ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _maybe_fault(site: str) -> None:
    """Chaos-harness injection point (see :mod:`repro.fuzz.faults`).

    Deliberately one env-dict lookup on the no-fault path: the faults
    module is only imported once a plan is actually armed, so production
    jobs pay nothing.
    """
    if "REPRO_FAULTS" not in os.environ:
        return
    from ..fuzz import faults

    faults.maybe_fault(site)


#: ``(pk, publics, witnesses)`` of the batch this worker was started for.
_BATCH = None


def park_batch(pk, publics, witnesses) -> None:
    """Executor initializer: keep the batch where :func:`prove_job`
    finds it."""
    global _BATCH
    _BATCH = (pk, publics, witnesses)


def prove_job(job: int, seed_seq, circuit_id: str, timeout_s=None) -> bytes:
    """Worker entry point: prove job ``job`` of the parked batch and
    return its envelope wire bytes (exactly what
    :meth:`ProofBundle.to_bytes` gives in-process).

    ``seed_seq`` is a :class:`numpy.random.SeedSequence` derived in the
    parent, so the zk-mask — the proof's only randomness — does not
    depend on the worker count.  ``timeout_s`` is the job's own
    cooperative deadline inside the worker.
    """
    from ..snark.api import prove_envelope

    _maybe_fault("prove_job")
    pk, publics, witnesses = _BATCH
    return prove_envelope(pk, publics[job], witnesses[job], seed=seed_seq,
                          circuit_id=circuit_id, timeout_s=timeout_s)[1]


def _kill_workers(executor) -> None:
    """SIGKILL every worker of ``executor``: a hung worker would block
    the ``with`` block's ``shutdown(wait=True)`` forever, a dead fleet
    makes it return at once."""
    for proc in list((getattr(executor, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except (OSError, ValueError, AttributeError):
            pass


def prove_batch(pk, publics: Sequence[np.ndarray],
                witnesses: Sequence[np.ndarray], seeds: Sequence,
                workers: int, circuit_id: str = "",
                timeout_s: Optional[float] = None) -> List:
    """Prove job ``j = (publics[j], witnesses[j], seeds[j])`` of one batch
    on at most ``workers`` freshly forked processes (never more than the
    batch has jobs); returns, in job order, each job's envelope bytes or
    the exception it ended with."""
    check_deadline("parallel.prove_batch")
    # Imported here: a process that never forks a batch never loads them.
    import multiprocessing
    from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                    ProcessPoolExecutor, wait)
    # Build the key's gather plans here, once: every worker of this and
    # later batches inherits them instead of rebuilding its own.
    pk.r1cs._stacked()
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    results: List = [None] * len(seeds)
    lost = list(range(len(seeds)))
    for second_round in (False, True):
        if second_round:
            _FLIGHT.record("worker_restart", jobs=len(lost), workers=workers)
        jobs, lost = lost, []
        with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs)), mp_context=ctx,
                initializer=park_batch,
                initargs=(pk, publics, witnesses)) as executor:
            pending = {executor.submit(prove_job, j, seeds[j], circuit_id,
                                       timeout_s): j
                       for j in jobs}
            while pending:
                window = STALL_TIMEOUT_S
                rem = _deadline_remaining()
                timeout = window if rem is None else min(window, max(0.0, rem))
                done, _ = wait(pending, timeout=timeout,
                               return_when=FIRST_COMPLETED)
                if not done:
                    _kill_workers(executor)
                    check_deadline("parallel.dispatch")
                    # Nothing finished inside the watchdog window:
                    # presume the workers hung.
                    _FLIGHT.record("dispatch_stall", pending=len(pending),
                                   window_s=window)
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
                        # A job's own spent budget is its answer, not an
                        # incident.
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
# (ROADMAP item 3(a)).  Nothing in ``src/`` calls them.

def get_pool(workers: Optional[int] = None) -> None:
    """Nothing to build: a batch forks its own workers."""


def shutdown() -> None:
    """Nothing to stop: no worker outlives :func:`prove_batch`."""
