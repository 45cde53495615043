"""Circuit builder: a small DSL that synthesizes R1CS instances and their
witnesses simultaneously.

The builder follows the assignment-style synthesis used by production
SNARK front-ends: allocating a wire supplies its concrete value, so after
construction the instance comes with a satisfying assignment.  Arithmetic
on :class:`Wire` objects builds linear combinations for free; each
multiplication of two non-constant wires allocates one witness wire and
one R1CS constraint — the cost model the paper's benchmarks are sized in.
"""

from __future__ import annotations

from itertools import chain
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..field.goldilocks import MODULUS, inv
from .matrices import SparseMatrix
from .system import R1CS, pad_r1cs


class LinearCombination:
    """A sparse linear combination of circuit variables.

    ``terms`` maps variable index -> coefficient; variable 0 is the
    constant-one wire, so constants are terms on variable 0.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[int, int]] = None):
        self.terms = {v: c % MODULUS for v, c in (terms or {}).items() if c % MODULUS}

    @classmethod
    def from_var(cls, index: int, coeff: int = 1) -> "LinearCombination":
        return cls({index: coeff})

    @classmethod
    def from_const(cls, value: int) -> "LinearCombination":
        return cls({0: value})

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        terms = dict(self.terms)
        for v, c in other.terms.items():
            terms[v] = (terms.get(v, 0) + c) % MODULUS
        return LinearCombination(terms)

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        terms = dict(self.terms)
        for v, c in other.terms.items():
            terms[v] = (terms.get(v, 0) - c) % MODULUS
        return LinearCombination(terms)

    def scale(self, k: int) -> "LinearCombination":
        k %= MODULUS
        return LinearCombination({v: c * k % MODULUS for v, c in self.terms.items()})

    def is_constant(self) -> Optional[int]:
        """Return the constant value if this LC uses only the one-wire."""
        if not self.terms:
            return 0
        if set(self.terms) == {0}:
            return self.terms[0]
        return None


class Wire:
    """A handle to a linear combination within a circuit, with operators."""

    __slots__ = ("circuit", "lc")

    def __init__(self, circuit: "Circuit", lc: LinearCombination):
        self.circuit = circuit
        self.lc = lc

    # -- linear ops (free) ---------------------------------------------------
    def __add__(self, other: "Wire | int") -> "Wire":
        return Wire(self.circuit, self.lc + self.circuit._as_lc(other))

    __radd__ = __add__

    def __sub__(self, other: "Wire | int") -> "Wire":
        return Wire(self.circuit, self.lc - self.circuit._as_lc(other))

    def __rsub__(self, other: "Wire | int") -> "Wire":
        return Wire(self.circuit, self.circuit._as_lc(other) - self.lc)

    def __neg__(self) -> "Wire":
        return Wire(self.circuit, self.lc.scale(MODULUS - 1))

    def __mul__(self, other: "Wire | int") -> "Wire":
        if isinstance(other, Integral):     # numpy integers included
            return Wire(self.circuit, self.lc.scale(int(other)))
        const = other.lc.is_constant()
        if const is not None:
            return Wire(self.circuit, self.lc.scale(const))
        const = self.lc.is_constant()
        if const is not None:
            return Wire(self.circuit, other.lc.scale(const))
        return self.circuit.mul(self, other)

    def __rmul__(self, other: int) -> "Wire":
        return self.__mul__(other)

    @property
    def value(self) -> int:
        return self.circuit.eval_lc(self.lc)

    def __repr__(self) -> str:
        return f"Wire(value={self.value})"


class Circuit:
    """An R1CS circuit under construction, carrying a live assignment."""

    def __init__(self):
        self._values: List[int] = [1]          # var 0 is the constant 1
        self._num_public = 1                    # includes the one-wire
        self._constraints: List[Tuple[LinearCombination, LinearCombination,
                                      LinearCombination]] = []
        self._public_order: List[int] = []      # var indices in allocation order
        self._frozen_public = False

    # -- allocation -----------------------------------------------------------
    def public(self, value: int) -> Wire:
        """Allocate a public-input wire.  All publics must be allocated
        before any witness wire so the z-vector layout stays contiguous."""
        if self._frozen_public:
            raise RuntimeError("allocate all public inputs before witnesses")
        idx = len(self._values)
        self._values.append(value % MODULUS)
        self._num_public += 1
        self._public_order.append(idx)
        return Wire(self, LinearCombination.from_var(idx))

    def witness(self, value: int) -> Wire:
        """Allocate a private witness wire with the given value."""
        self._frozen_public = True
        idx = len(self._values)
        self._values.append(value % MODULUS)
        return Wire(self, LinearCombination.from_var(idx))

    def constant(self, value: int) -> Wire:
        return Wire(self, LinearCombination.from_const(value))

    @property
    def one(self) -> Wire:
        return self.constant(1)

    # -- constraints ------------------------------------------------------------
    def enforce(self, a: "Wire | int", b: "Wire | int", c: "Wire | int") -> None:
        """Add the constraint <a,z> * <b,z> = <c,z>."""
        self._constraints.append(
            (self._as_lc(a), self._as_lc(b), self._as_lc(c)))

    def mul(self, x: Wire, y: Wire) -> Wire:
        """Allocate w = x * y with one constraint."""
        w = self.witness(self.eval_lc(x.lc) * self.eval_lc(y.lc) % MODULUS)
        self.enforce(x, y, w)
        return w

    def square(self, x: Wire) -> Wire:
        return self.mul(x, x)

    def assert_equal(self, x: "Wire | int", y: "Wire | int") -> None:
        self.enforce(Wire(self, self._as_lc(x) - self._as_lc(y)), self.one, 0)

    def assert_zero(self, x: Wire) -> None:
        self.enforce(x, self.one, 0)

    def assert_bool(self, x: Wire) -> None:
        """Constrain x in {0, 1}: x * (x - 1) = 0."""
        self.enforce(x, x - 1, 0)

    # -- boolean gadgets ----------------------------------------------------------
    def xor(self, a: Wire, b: Wire) -> Wire:
        """a XOR b for boolean wires: a + b - 2ab (one constraint)."""
        prod = self.mul(a, b)
        return a + b - prod * 2

    def and_(self, a: Wire, b: Wire) -> Wire:
        return self.mul(a, b)

    def or_(self, a: Wire, b: Wire) -> Wire:
        return a + b - self.mul(a, b)

    def not_(self, a: Wire) -> Wire:
        return self.one - a

    def select(self, cond: Wire, if_true: Wire, if_false: Wire) -> Wire:
        """cond ? if_true : if_false, for boolean cond (one constraint)."""
        delta = if_true - if_false
        return if_false + self.mul(cond, delta)

    # -- numeric gadgets ------------------------------------------------------------
    def to_bits(self, x: Wire, width: int) -> List[Wire]:
        """Decompose x into `width` boolean wires (LSB first); constrains
        each bit and the recomposition, so it doubles as a range check."""
        value = self.eval_lc(x.lc)
        if value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        bits = []
        for i in range(width):
            bit = self.witness((value >> i) & 1)
            self.assert_bool(bit)
            bits.append(bit)
        self.assert_equal(self.from_bits(bits), x)
        return bits

    def from_bits(self, bits: Sequence[Wire]) -> Wire:
        acc = self.constant(0)
        for i, bit in enumerate(bits):
            acc = acc + bit * (1 << i)
        return acc

    def is_zero(self, x: Wire) -> Wire:
        """Return a boolean wire that is 1 iff x == 0 (two constraints)."""
        value = self.eval_lc(x.lc)
        inv_val = 0 if value == 0 else inv(value)
        m = self.witness(inv_val)
        y = self.witness(1 if value == 0 else 0)
        # x * m = 1 - y  and  x * y = 0
        self.enforce(x, m, self.one - y)
        self.enforce(x, y, 0)
        return y

    def assert_nonzero(self, x: Wire) -> Wire:
        """Constrain x != 0 by exhibiting its inverse; returns 1/x."""
        value = self.eval_lc(x.lc)
        if value == 0:
            raise ValueError("assert_nonzero on a zero wire")
        m = self.witness(inv(value))
        self.enforce(x, m, 1)
        return m

    def less_than(self, a: Wire, b: Wire, width: int) -> Wire:
        """Boolean a < b for values known to fit in `width` bits.

        Computes b - a - 1 + 2^width and inspects bit `width` (borrow
        trick): the bit is set exactly when b - a - 1 >= 0, i.e. a < b.
        """
        shifted = b - a + ((1 << width) - 1)
        bits = self.to_bits(shifted, width + 1)
        return bits[width]

    def lookup(self, x: Wire, table: Sequence[int], width: int = 8,
               assume_range: bool = False) -> Wire:
        """Table lookup y = table[x] via the interpolated polynomial.

        Requires len(table) == 2^width; range-checks x then evaluates the
        degree-(2^width - 1) interpolant with a Horner chain (one constraint
        per coefficient).  This is how the AES S-box is arithmetized.
        Pass ``assume_range=True`` when x was already assembled from
        constrained bits, to skip the redundant range check.
        """
        if len(table) != (1 << width):
            raise ValueError("table length must be 2^width")
        if not assume_range:
            self.to_bits(x, width)
        coeffs = _lookup_coeffs(tuple(int(v) % MODULUS for v in table))
        acc = self.constant(coeffs[-1])
        for coeff in reversed(coeffs[:-1]):
            acc = self.mul(acc, x) + coeff
        return acc

    # -- evaluation / compilation -------------------------------------------------
    def eval_lc(self, lc: LinearCombination) -> int:
        return sum(c * self._values[v] for v, c in lc.terms.items()) % MODULUS

    def _as_lc(self, x: "Wire | int") -> LinearCombination:
        if isinstance(x, Wire):
            return x.lc
        return LinearCombination.from_const(int(x))

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def num_variables(self) -> int:
        return len(self._values)

    def compile(self, min_size: int = 4) -> Tuple[R1CS, np.ndarray, np.ndarray]:
        """Produce the padded R1CS plus (public, witness) assignments.

        The returned public vector includes the leading constant 1.
        """
        num_public = self._num_public
        num_witness = len(self._values) - num_public
        m = len(self._constraints)

        def build(which: int) -> SparseMatrix:
            # One stored row per distinct LinearCombination object: a
            # gadget that feeds one LC into many constraints (lookup's
            # Horner chain) repeats its row, which is then stored once
            # behind a row map — when that pays (_keeps_row_map).  The
            # repeated entries are never put into an array.
            lcs = [cons[which] for cons in self._constraints]
            distinct = list({id(lc): lc for lc in lcs}.values())
            row_map = None
            if _keeps_row_map(sum(len(lc.terms) for lc in lcs),
                              sum(len(lc.terms) for lc in distinct), m):
                slot = {id(lc): i for i, lc in enumerate(distinct)}
                row_map = np.fromiter((slot[id(lc)] for lc in lcs),
                                      dtype=np.int32, count=m)
                lcs = distinct
            # Terms go straight into arrays (coefficients are canonical, so
            # they fit uint64); a row id is one repeat per stored row.
            terms = [lc.terms for lc in lcs]
            counts = np.fromiter(map(len, terms), dtype=np.int64,
                                 count=len(terms))
            nnz = int(counts.sum())
            cols = np.fromiter(chain.from_iterable(terms), dtype=np.int64,
                               count=nnz)
            vals = np.fromiter(chain.from_iterable(t.values() for t in terms),
                               dtype=np.uint64, count=nnz)
            stored = SparseMatrix.from_arrays(
                len(terms), num_public + num_witness,
                np.repeat(np.arange(len(terms), dtype=np.int64), counts),
                cols, vals)
            if row_map is None:
                return stored
            return SparseMatrix.from_csr(m, stored.num_cols, stored.indptr,
                                         stored.cols, stored.vals, row_map)

        r1cs = pad_r1cs(build(0), build(1), build(2),
                        num_public, num_witness, min_size=min_size)
        public = np.array(self._values[:num_public], dtype=np.uint64)
        witness = np.array(self._values[num_public:], dtype=np.uint64)
        return r1cs, public, witness


def _keeps_row_map(entries: int, stored_entries: int, rows: int) -> bool:
    """Whether a matrix of ``rows`` rows and ``entries`` non-zeros keeps
    its distinct-row form, which stores ``stored_entries``: only when the
    entries it saves outnumber the rows, since a fold and an expand each
    touch every row."""
    return entries - stored_entries > rows


_lookup_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


def _lookup_coeffs(table: Tuple[int, ...]) -> Tuple[int, ...]:
    """Interpolation coefficients of the polynomial through (i, table[i])."""
    if table not in _lookup_cache:
        from ..field.poly import interpolate

        poly = interpolate(list(range(len(table))), list(table))
        coeffs = list(poly.coeffs) + [0] * (len(table) - len(poly.coeffs))
        _lookup_cache[table] = tuple(coeffs)
    return _lookup_cache[table]
