"""Dense univariate polynomials over the Goldilocks field.

Used for sumcheck round polynomials (degree <= 3), Lagrange interpolation
of verifier checks, and zero-knowledge masking polynomials.  Large
polynomial products go through the NTT (:mod:`repro.ntt`); this module's
schoolbook multiply covers the small degrees on protocol critical paths.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from .goldilocks import MODULUS, batch_inv


class Polynomial:
    """A dense polynomial; ``coeffs[i]`` is the coefficient of x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        c = [int(x) % MODULUS for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.coeffs = c or [0]

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls([0])

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls([c])

    @property
    def degree(self) -> int:
        """Degree with deg(0) = 0 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == [0]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Polynomial([(x + y) % MODULUS for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Polynomial([(x - y) % MODULUS for x, y in zip(a, b)])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % MODULUS
        return Polynomial(out)

    def scale(self, s: int) -> "Polynomial":
        s %= MODULUS
        return Polynomial([c * s % MODULUS for c in self.coeffs])

    def evaluate(self, x: int) -> int:
        """Evaluate at x via Horner's rule."""
        x %= MODULUS
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % MODULUS
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs})"


def interpolate(xs: Sequence[int], ys: Sequence[int]) -> Polynomial:
    """Lagrange interpolation through distinct points (xs[i], ys[i]).

    O(n^2): builds M(x) = prod (x - x_i) once, then derives each basis
    polynomial by synthetic division M / (x - x_i); the denominator
    M'(x_i) comes out of the same division.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    xs = [x % MODULUS for x in xs]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    n = len(xs)
    if n == 0:
        return Polynomial.zero()

    # M(x) = prod_i (x - x_i), degree n.
    m = [1] + [0] * n
    deg = 0
    for x in xs:
        neg_x = (-x) % MODULUS
        for k in range(deg, -1, -1):
            m[k + 1] = (m[k + 1] + m[k]) % MODULUS  # shift up (times x)
            m[k] = m[k] * neg_x % MODULUS
        deg += 1
    m = m[: n + 1][::-1]  # highest-degree first for synthetic division

    quotients: List[List[int]] = []
    denoms: List[int] = []
    for x in xs:
        # Divide M by (x - x_i): synthetic division on descending coeffs.
        q = [0] * n
        acc = 0
        for k in range(n):
            acc = (acc * x + m[k]) % MODULUS
            q[k] = acc
        denom = (acc * x + m[n]) % MODULUS  # this is M(x_i) = 0 ... remainder
        # Remainder is 0; the denominator M'(x_i) equals Q_i(x_i):
        d = 0
        for k in range(n):
            d = (d * x + q[k]) % MODULUS
        quotients.append(q)
        denoms.append(d)
    denom_invs = batch_inv(denoms)

    out = [0] * n
    for q, y, dinv in zip(quotients, ys, denom_invs):
        scale = y % MODULUS * dinv % MODULUS
        for k in range(n):
            out[k] = (out[k] + q[k] * scale) % MODULUS
    return Polynomial(out[::-1])


def evaluate_on_range(poly: Polynomial, count: int) -> List[int]:
    """Evaluate ``poly`` at x = 0, 1, ..., count-1."""
    return [poly.evaluate(x) for x in range(count)]


@lru_cache(maxsize=64)
def _inv_denoms(xs: Tuple[int, ...]) -> Tuple[int, ...]:
    """Inverse barycentric denominators 1 / prod_{j != i} (x_i - x_j).

    Cached per node tuple: sumchecks interpolate on the nodes 0..d for a
    handful of degrees d.  Repeated nodes raise ``ZeroDivisionError``
    (which ``lru_cache`` does not store).
    """
    denoms = []
    for i, xi in enumerate(xs):
        d = 1
        for j, xj in enumerate(xs):
            if i != j:
                d = d * (xi - xj) % MODULUS
        denoms.append(d)
    return tuple(batch_inv(denoms))


def interpolate_eval(xs: Sequence[int], ys: Sequence[int], x: int) -> int:
    """Evaluate, at ``x``, the unique polynomial through (xs[i], ys[i]).

    This is the verifier-side primitive for checking sumcheck round
    polynomials sent as evaluations: O(n^2) scalar work for tiny n, with
    the one field inversion paid once per node tuple, not per call.
    """
    x %= MODULUS
    xs = tuple(xs)
    total = 0
    for i, dinv in enumerate(_inv_denoms(xs)):
        num = ys[i] % MODULUS
        for j, xj in enumerate(xs):
            if i != j:
                num = num * (x - xj) % MODULUS
        total = (total + num * dinv) % MODULUS
    return total
