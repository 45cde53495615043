"""Root-of-unity and twiddle-factor tables for Goldilocks NTTs.

The Goldilocks field has 2-adicity 32 (p - 1 = 2^32 * (2^32 - 1)), so NTTs
of any power-of-two length up to 2^32 exist.  Tables are cached per length;
NoCap's NTT functional unit keeps the analogous tables in SRAM.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..field.goldilocks import MODULUS, inv, root_of_unity


@lru_cache(maxsize=None)
def primitive_root(n: int) -> int:
    """Primitive n-th root of unity (n a power of two <= 2^32)."""
    return root_of_unity(n)


@lru_cache(maxsize=None)
def inverse_root(n: int) -> int:
    """Inverse of the primitive n-th root of unity."""
    return inv(primitive_root(n))


@lru_cache(maxsize=None)
def n_inverse(n: int) -> int:
    """n^-1 mod p, used to scale inverse NTT outputs."""
    return inv(n)


@lru_cache(maxsize=None)
def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation for length n (a power of two)."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for b in range(bits):
        rev |= ((idx >> np.uint64(b)) & np.uint64(1)) << np.uint64(bits - 1 - b)
    return rev.astype(np.int64)


@lru_cache(maxsize=None)
def twiddle_stages(n: int, inverse: bool) -> Tuple[np.ndarray, ...]:
    """Per-stage twiddle vectors for an iterative radix-2 NTT of length n.

    Stage s (block length 2^(s+1)) uses powers [w^0 .. w^(2^s - 1)] of the
    primitive 2^(s+1)-th root.
    """
    stages = []
    log_n = n.bit_length() - 1
    for s in range(log_n):
        length = 1 << (s + 1)
        w = inverse_root(length) if inverse else primitive_root(length)
        half = length // 2
        tw = np.empty(half, dtype=np.uint64)
        acc = 1
        for i in range(half):
            tw[i] = acc
            acc = acc * w % MODULUS
        stages.append(tw)
    return tuple(stages)
