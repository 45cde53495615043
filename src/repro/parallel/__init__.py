"""Process-pool parallelism for the functional prover.

Independent proof jobs share nothing, so :class:`ProverPool` proves a
batch of them on worker processes — the proving key broadcast once and
the jobs' inputs stacked in shared memory (:mod:`repro.parallel.shm`) —
with proof bytes bit-identical to proving them one by one on the caller;
:func:`get_pool` returns the persistent process-wide pool that stays
warm across ``prove_many`` calls.  A single proof is one job and always
runs on the caller.  See ``docs/API.md`` for usage and
``docs/PERFORMANCE.md`` for the dispatch flow and the decision record.
"""

from . import deadline, kernels, shm
from .deadline import check_deadline, deadline_scope
from .pool import FaultPolicy, ProverPool, get_pool, shutdown, usable_cpus
from .shm import (ArrayDesc, BlobDesc, ShmArena, ShmError, reclaim_orphans,
                  scan_orphans)

__all__ = [
    "ProverPool",
    "FaultPolicy",
    "get_pool",
    "shutdown",
    "usable_cpus",
    "ShmArena",
    "ShmError",
    "ArrayDesc",
    "BlobDesc",
    "scan_orphans",
    "reclaim_orphans",
    "check_deadline",
    "deadline_scope",
    "deadline",
    "kernels",
    "shm",
]
