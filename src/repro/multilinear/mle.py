"""Multilinear extensions (MLEs) over the boolean hypercube.

A length-2^L vector is read as the evaluation table of an L-variate
multilinear polynomial: index i holds the value at the point whose bit
pattern is i (Sec. V-A, "Sumcheck DP algorithm").  Convention: variable 0
binds the MOST significant bit, matching Listing 1's fold order (round i
combines entries b and b + 2^(L-i)).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..field import vector as fv
from ..field.goldilocks import MODULUS
from . import table as tb


def num_vars(table: np.ndarray) -> int:
    n = len(table)
    if n == 0 or n & (n - 1):
        raise ValueError(f"MLE table length must be a power of two, got {n}")
    return n.bit_length() - 1


def fold(table: np.ndarray, r: int) -> np.ndarray:
    """Bind the top variable to r: out[b] = (1-r)*bottom[b] + r*top[b].

    The output is the MLE table of the remaining L-1 variables.
    """
    table = np.asarray(table, dtype=np.uint64)
    return np.asarray(tb.fold(table, int(r) % MODULUS), dtype=np.uint64)


def mle_eval(table: np.ndarray, point: Sequence[int]) -> int:
    """Evaluate the MLE of ``table`` at ``point`` (len(point) variables)."""
    table = np.asarray(table, dtype=np.uint64)
    if len(table) != 1 << len(point):
        raise ValueError("point dimension does not match table size")
    for r in point:
        table = tb.fold(table, int(r) % MODULUS)
    return int(table[0])


def mle_eval_head(head: np.ndarray, point: Sequence[int]) -> int:
    """:func:`mle_eval` of the 2^len(point) table that is ``head`` followed
    by zeros, in O(len(head)) instead of O(2^len(point)).

    With 2^k >= len(head), every non-zero entry has its L - k leading
    index bits at 0, so the value is prod_{j < L-k} (1 - point_j) times
    the MLE of the zero-padded 2^k head at ``point[L-k:]``.
    """
    head = np.asarray(head, dtype=np.uint64)
    if head.ndim != 1 or len(head) > 1 << len(point):
        raise ValueError("head does not fit the point's table")
    if len(head) == 0:
        return 0
    k = (len(head) - 1).bit_length()
    lead = len(point) - k
    table = np.zeros(1 << k, dtype=np.uint64)
    table[:len(head)] = head
    acc = mle_eval(table, point[lead:])
    for r in point[:lead]:
        acc = acc * (1 - int(r)) % MODULUS
    return acc


def eq_suffix_tables(point: Sequence[int]):
    """Yield the eq tables of ``point[k:]`` for k = len(point) down to 0
    (lengths 1, 2, 4, ...), each in its :func:`table.fit` representation.

    eq(r, b) = r*b + (1-r)*(1-b).  Built back to front by doubling — the
    next variable out becomes the most significant bit — so the O(2^L)
    multiplies that build the full table pass through every suffix table
    on the way; Spartan's first sumcheck keeps them all.
    """
    table = tb.fit([1])
    yield table
    for r in reversed(point):
        table = tb.eq_extend(table, int(r) % MODULUS)
        yield table


def eq_table(point: Sequence[int]) -> np.ndarray:
    """Evaluation table of eq(point, .): out[b] = prod_i eq(point_i, b_i),
    variable 0 the most significant bit of b.  O(2^L) multiplies, which is
    also what the cost model charges."""
    for table in eq_suffix_tables(point):
        pass                    # the last suffix is the whole point
    return np.asarray(table, dtype=np.uint64)


def eq_eval(a: Sequence[int], b: Sequence[int]) -> int:
    """eq(a, b) = prod_i (a_i b_i + (1-a_i)(1-b_i))."""
    if len(a) != len(b):
        raise ValueError("eq_eval needs equal-length points")
    acc = 1
    for x, y in zip(a, b):
        x, y = int(x) % MODULUS, int(y) % MODULUS
        term = (x * y + (1 - x) * (1 - y)) % MODULUS
        acc = acc * term % MODULUS
    return acc


def hypercube_sum(table: np.ndarray) -> int:
    """Sum of the MLE over the boolean hypercube = sum of the table."""
    return fv.vsum(np.asarray(table, dtype=np.uint64))


def tensor_split_eval(table: np.ndarray, row_point: Sequence[int],
                      col_point: Sequence[int]) -> int:
    """Evaluate viewing the table as a (2^|row|, 2^|col|) matrix:
    value = row_eq^T M col_eq.  This is the Orion PCS evaluation identity."""
    rows = 1 << len(row_point)
    cols = 1 << len(col_point)
    mat = np.asarray(table, dtype=np.uint64).reshape(rows, cols)
    r = eq_table(row_point)
    c = eq_table(col_point)
    u = combine_rows(mat, r)
    return fv.dot(u, c)


def combine_rows(matrix: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Return coeffs^T @ matrix over GF(p) (random row combination).

    Delegates to the :func:`repro.field.vector.vecmat` kernel: exact for
    any uint64 inputs, one modular reduction per column, more than 512
    rows combined in chunks of at most that many.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    if matrix.shape[0] != len(coeffs):
        raise ValueError("coefficient count must equal row count")
    return fv.vecmat(coeffs, matrix)
