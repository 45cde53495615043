"""Process-pool parallelism for the functional prover.

Independent proof jobs share nothing, so :class:`ProverPool` proves a
batch of them on worker processes forked for that batch — they inherit
the proving key and the jobs' inputs, prove, send envelope bytes back
and exit — with proof bytes bit-identical to proving them one by one on
the caller.  A single proof is one job and always runs on the caller.
See ``docs/API.md`` for usage and ``docs/PERFORMANCE.md`` for the
dispatch flow and the decision record.
"""

from . import deadline, kernels
from .deadline import check_deadline, deadline_scope
from .pool import ProverPool, get_pool, shutdown, usable_cpus

__all__ = [
    "ProverPool",
    "get_pool",
    "shutdown",
    "usable_cpus",
    "check_deadline",
    "deadline_scope",
    "deadline",
    "kernels",
]
