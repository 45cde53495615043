"""The worker-side entry point of :class:`~repro.parallel.pool.ProverPool`.

A pool ships exactly one kind of work to a worker process: a whole proof
job (:func:`prove_job`).  The function is module-level (so it pickles by
reference) and a pure function of its arguments plus the shared segments
they name, so results assembled in submission order are bit-identical to
proving the same jobs one after another on the caller.  When the parent
is tracing, the pool runs the job under a worker-local tracer and merges
its spans, counters and histograms back into the parent
(:meth:`~repro.parallel.pool.ProverPool.run`); the worker appears as an
extra pid in the exported Chrome trace.
"""

from __future__ import annotations

import os as _os
from collections import OrderedDict

import numpy as np

from . import shm


def _maybe_fault(site: str, desc=None) -> None:
    """Chaos-harness injection point (see :mod:`repro.fuzz.faults`).

    Deliberately one env-dict lookup on the no-fault path: the faults
    module is only imported once a plan is actually armed, so production
    jobs pay nothing.
    """
    if "REPRO_FAULTS" not in _os.environ:
        return
    from ..fuzz import faults

    faults.maybe_fault(site, desc=desc)


#: Worker-resident proving keys, keyed by broadcast token.  A key is
#: unpickled from its shared blob ONCE per worker and reused for every
#: job of every batch that broadcasts the same key (amortized keygen).
_PK_CACHE: "OrderedDict[str, object]" = OrderedDict()
_PK_CACHE_MAX = 4


def _cached_pk(token: str, blob_desc):
    pk = _PK_CACHE.get(token)
    if pk is None:
        pk = shm.read_pickle(blob_desc)
        _PK_CACHE[token] = pk
        while len(_PK_CACHE) > _PK_CACHE_MAX:
            _PK_CACHE.popitem(last=False)
    else:
        _PK_CACHE.move_to_end(token)
    return pk


def prove_job(token: str, blob_desc, pub_desc, wit_desc, job: int,
              seed_seq, circuit_id: str, timeout_s=None) -> bytes:
    """Generate one complete proof and return its envelope wire bytes.

    The proving key arrives as a shared pickled blob broadcast once per
    batch (and cached per worker across batches); the job's public inputs
    and witness are row ``job`` of two stacked shared matrices.  Only the
    envelope bytes travel back through the pipe, so the parent pays one
    deserialization per job and the bytes are exactly what
    :meth:`ProofBundle.to_bytes` would produce in-process.

    ``seed_seq`` is a :class:`numpy.random.SeedSequence` derived
    deterministically in the parent, making the zk-mask — the proof's
    only randomness — independent of the worker count.  ``timeout_s``
    installs a per-job cooperative deadline inside the worker
    (:mod:`repro.parallel.deadline`), so one runaway statement cannot
    stall a whole batch from the inside.
    """
    from ..snark.api import prove

    _maybe_fault("prove_job", desc=blob_desc)
    pk = _cached_pk(token, blob_desc)
    with shm.attached(pub_desc) as pubs, shm.attached(wit_desc) as wits:
        public = np.array(pubs[job])
        witness = np.array(wits[job])
    bundle = prove(pk, public, witness,
                   rng=np.random.default_rng(seed_seq),
                   circuit_id=circuit_id, timeout_s=timeout_s)
    return bundle.to_bytes()
