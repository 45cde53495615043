"""Process-pool parallelism for the functional prover.

Independent proof jobs share nothing, so :func:`~repro.parallel.pool.
prove_batch` proves a batch of them on worker processes forked for that
batch — they inherit the proving key and the jobs' inputs, prove, send
envelope bytes back and exit — with proof bytes bit-identical to proving
them one by one on the caller.  Its one knob is ``prove_many(workers=)``;
a single proof is one job and always runs on the caller.  See
``docs/API.md`` for usage and ``docs/PERFORMANCE.md`` for the dispatch
flow and the decision record.
"""

from . import deadline
from .deadline import check_deadline, deadline_scope
from .pool import get_pool, prove_batch, shutdown, usable_cpus

__all__ = [
    "prove_batch",
    "get_pool",
    "shutdown",
    "usable_cpus",
    "check_deadline",
    "deadline_scope",
    "deadline",
]
