"""Scalar arithmetic in the Goldilocks-64 field, GF(p) with p = 2^64 - 2^32 + 1.

This is the field NoCap computes in (Sec. IV-A of the paper).  Its prime has
an especially cheap reduction: because 2^64 = 2^32 - 1 (mod p) and
2^96 = -1 (mod p), a 128-bit product reduces with a handful of additions and
shifts.  The scalar implementation here favours clarity; hot paths use the
vectorized numpy kernels in :mod:`repro.field.vector`, which implement the
identical reduction and are property-tested against this module.
"""

from __future__ import annotations

from typing import Iterable, List

#: The Goldilocks prime, 2^64 - 2^32 + 1.
MODULUS = (1 << 64) - (1 << 32) + 1

#: Smallest generator of the multiplicative group GF(p)*.
GENERATOR = 7

#: p - 1 = 2^32 * (2^32 - 1): the field supports NTTs up to length 2^32.
TWO_ADICITY = 32

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def add(a: int, b: int) -> int:
    """Return (a + b) mod p for canonical inputs."""
    s = a + b
    if s >= MODULUS:
        s -= MODULUS
    return s


def sub(a: int, b: int) -> int:
    """Return (a - b) mod p for canonical inputs."""
    d = a - b
    if d < 0:
        d += MODULUS
    return d


def neg(a: int) -> int:
    """Return -a mod p."""
    return 0 if a == 0 else MODULUS - a


def mul(a: int, b: int) -> int:
    """Return (a * b) mod p via the Goldilocks reduction.

    The 128-bit product n = hi * 2^64 + lo is folded using
    2^64 = 2^32 - 1 (mod p):  n = lo + hi_lo*(2^32 - 1) - hi_hi (mod p),
    where hi = hi_hi * 2^32 + hi_lo.  This mirrors, step for step, what the
    vectorized kernel and a hardware multiplier do.
    """
    n = a * b
    lo = n & _MASK64
    hi = n >> 64
    hi_lo = hi & _MASK32
    hi_hi = hi >> 32

    t = lo - hi_hi
    if t < 0:
        t += MODULUS
    t = t + hi_lo * _MASK32
    # t < 2^64 + (2^32-1)^2 < 2p^... reduce with at most two subtractions.
    while t >= MODULUS:
        t -= MODULUS
    return t


def inv(a: int) -> int:
    """Return the multiplicative inverse of a (a != 0)."""
    if a % MODULUS == 0:
        raise ZeroDivisionError("inverse of zero in GF(p)")
    return pow(a, MODULUS - 2, MODULUS)


def batch_inv(values: Iterable[int]) -> List[int]:
    """Invert many nonzero elements with Montgomery's trick (1 inversion total)."""
    vals = [v % MODULUS for v in values]
    prefix: List[int] = []
    acc = 1
    for v in vals:
        if v == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        prefix.append(acc)
        acc = acc * v % MODULUS
    acc_inv = inv(acc)
    out = [0] * len(vals)
    for i in range(len(vals) - 1, -1, -1):
        out[i] = prefix[i] * acc_inv % MODULUS
        acc_inv = acc_inv * vals[i] % MODULUS
    return out


def root_of_unity(order: int) -> int:
    """Return a primitive ``order``-th root of unity; order must divide 2^32."""
    if order < 1 or (order & (order - 1)) != 0:
        raise ValueError(f"order must be a power of two, got {order}")
    log_order = order.bit_length() - 1
    if log_order > TWO_ADICITY:
        raise ValueError(f"order 2^{log_order} exceeds field 2-adicity {TWO_ADICITY}")
    return pow(GENERATOR, (MODULUS - 1) >> log_order, MODULUS)


class Fp:
    """A Goldilocks field element with operator overloading.

    Convenience wrapper for non-hot-path code and tests; hot paths operate on
    raw ints or numpy arrays.
    """

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value % MODULUS

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Fp | int") -> "Fp":
        return Fp(self.value + _val(other))

    __radd__ = __add__

    def __sub__(self, other: "Fp | int") -> "Fp":
        return Fp(self.value - _val(other))

    def __rsub__(self, other: "Fp | int") -> "Fp":
        return Fp(_val(other) - self.value)

    def __mul__(self, other: "Fp | int") -> "Fp":
        return Fp(self.value * _val(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "Fp | int") -> "Fp":
        return Fp(self.value * inv(_val(other)))

    def __rtruediv__(self, other: "Fp | int") -> "Fp":
        return Fp(_val(other) * inv(self.value))

    def __pow__(self, e: int) -> "Fp":
        return Fp(pow(self.value, e, MODULUS))

    def __neg__(self) -> "Fp":
        return Fp(neg(self.value))

    def inverse(self) -> "Fp":
        return Fp(inv(self.value))

    # -- comparison / misc --------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other % MODULUS
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Fp({self.value})"

    def __bool__(self) -> bool:
        return self.value != 0


def _val(x: "Fp | int") -> int:
    return x.value if isinstance(x, Fp) else int(x)
