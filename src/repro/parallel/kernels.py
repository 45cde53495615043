"""The worker-side entry point of :class:`~repro.parallel.pool.ProverPool`.

A pool ships exactly one kind of work to a worker process: a whole proof
job (:func:`prove_job`).  The batch it belongs to — proving key, public
inputs, witnesses — is parked in a module global by the executor's
initializer (:func:`park_batch`): inherited under ``fork``, unpickled
once per worker under ``spawn``, never sent with a task.  A job is a
pure function of that batch and its arguments, so results assembled in
submission order are bit-identical to proving the same jobs one after
another on the caller.
"""

from __future__ import annotations

import os as _os

import numpy as np


def _maybe_fault(site: str) -> None:
    """Chaos-harness injection point (see :mod:`repro.fuzz.faults`).

    Deliberately one env-dict lookup on the no-fault path: the faults
    module is only imported once a plan is actually armed, so production
    jobs pay nothing.
    """
    if "REPRO_FAULTS" not in _os.environ:
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
    """Generate proof ``job`` of the parked batch and return its envelope
    wire bytes.

    Only the envelope bytes travel back through the pipe, so the parent
    pays one deserialization per job and the bytes are exactly what
    :meth:`ProofBundle.to_bytes` would produce in-process.

    ``seed_seq`` is a :class:`numpy.random.SeedSequence` derived
    deterministically in the parent, making the zk-mask — the proof's
    only randomness — independent of the worker count.  ``timeout_s``
    installs a per-job cooperative deadline inside the worker
    (:mod:`repro.parallel.deadline`), so one runaway statement cannot
    stall a whole batch from the inside.
    """
    from ..snark.api import prove

    _maybe_fault("prove_job")
    pk, publics, witnesses = _BATCH
    bundle = prove(pk, publics[job], witnesses[job],
                   rng=np.random.default_rng(seed_seq),
                   circuit_id=circuit_id, timeout_s=timeout_s)
    return bundle.to_bytes()
