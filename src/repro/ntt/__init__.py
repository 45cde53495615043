"""Number-theoretic transforms over the Goldilocks field."""

from .fourstep import HW_BASE_SIZE, four_step_ntt
from .polymul import next_pow2, poly_eval_domain, poly_mul
from .radix2 import intt, ntt, ntt_slow
from .roots import inverse_root, n_inverse, primitive_root

__all__ = [
    "HW_BASE_SIZE",
    "four_step_ntt",
    "next_pow2",
    "poly_eval_domain",
    "poly_mul",
    "intt",
    "ntt",
    "ntt_slow",
    "inverse_root",
    "n_inverse",
    "primitive_root",
]
