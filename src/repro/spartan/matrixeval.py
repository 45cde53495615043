"""Evaluation of the multilinear extensions of the R1CS matrices.

M~(rx, ry) = sum over non-zeros v at (i, j) of v * eq(rx, i) * eq(ry, j).

Spartan's full scheme (Spark) commits to these sparse MLEs during
preprocessing and proves the evaluations with memory-checking sumchecks
(the 4-gamma multiset hashes of Sec. VII-A).  The functional layer here
lets the verifier evaluate directly, in O(stored entries + rows): a
matrix in distinct-row form (``SparseMatrix.row_map``) folds the row
weights onto its stored rows first, so a repeated row is walked once, and
a plain CSR matrix walks all nnz.  Identical result, not succinct; the
succinct variant's cost appears in the performance model (DESIGN.md,
substitutions table).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..field import vector as fv
from ..field.goldilocks import MODULUS
from ..multilinear.mle import eq_table
from ..r1cs.matrices import SparseMatrix

#: Non-zeros per block of the entry loop: the row weights, the column
#: gather and their product are ~2 MB each instead of nnz-sized (25 MB at
#: 2^20), so they stay cache-resident between the multiply and the dot
#: that consumes them.
ENTRY_BLOCK = 1 << 18


def _check_point(matrix: SparseMatrix, rx: Sequence[int],
                 ry: Sequence[int]) -> None:
    if matrix.num_rows != (1 << len(rx)) or matrix.num_cols != (1 << len(ry)):
        raise ValueError("point dimensions do not match matrix shape")


def _weighted_entry_sum(matrix: SparseMatrix, eq_rows: np.ndarray,
                        eq_cols: np.ndarray) -> int:
    """sum over non-zeros v at (i, j) of v * eq_rows[i] * eq_cols[j] mod p,
    one :data:`ENTRY_BLOCK` of stored entries at a time.

    The walk is row by row, like NoCap's output-stationary SpMV (Sec.
    V-A): a block's entries belong to stored rows r0..r1-1 of the CSR
    form, and each row's weight is repeated over its entries in the block
    — no row id per non-zero is read.  A matrix with a row map first
    folds ``eq_rows`` onto its stored rows (:meth:`SparseMatrix.fold`: a
    stored row weighs the sum of its rows' weights), so the walk costs
    O(stored entries + rows), not O(nnz)."""
    eq_rows = matrix.fold(eq_rows)
    acc, indptr, nnz = 0, matrix.indptr, matrix.stored_nnz
    for e0 in range(0, nnz, ENTRY_BLOCK):
        e1 = min(nnz, e0 + ENTRY_BLOCK)
        # An int32 needle: a Python int would cast all of indptr first.
        r0 = int(indptr.searchsorted(np.int32(e0), side="right")) - 1
        r1 = int(indptr.searchsorted(np.int32(e1), side="left"))
        counts = np.diff(indptr[r0:r1 + 1])
        counts[0] -= e0 - indptr[r0]        # the block's part of its edge
        counts[-1] -= indptr[r1] - e1       # rows
        # Column bounds were checked when the matrix was constructed.
        w = fv.mul(np.repeat(eq_rows[r0:r1], counts),
                   np.take(eq_cols, matrix.cols[e0:e1], mode="clip"),
                   canonical=False)
        acc += fv.dot(matrix.vals[e0:e1], w)
    return acc % MODULUS


def matrix_mle_eval(matrix: SparseMatrix, rx: Sequence[int],
                    ry: Sequence[int]) -> int:
    """Evaluate the matrix MLE at (rx, ry) directly from the non-zeros."""
    _check_point(matrix, rx, ry)
    return _weighted_entry_sum(matrix, eq_table(rx), eq_table(ry))


def combined_matrix_eval(a: SparseMatrix, b: SparseMatrix, c: SparseMatrix,
                         r_a: int, r_b: int, r_c: int,
                         rx: Sequence[int], ry: Sequence[int]) -> int:
    """(r_a * A~ + r_b * B~ + r_c * C~)(rx, ry), sharing the eq tables."""
    for m in (a, b, c):
        _check_point(m, rx, ry)
    eq_rows = eq_table(rx)
    eq_cols = eq_table(ry)
    total = sum(coeff * _weighted_entry_sum(m, eq_rows, eq_cols)
                for m, coeff in ((a, r_a), (b, r_b), (c, r_c)))
    return total % MODULUS


def combined_matrix_row(a: SparseMatrix, b: SparseMatrix, c: SparseMatrix,
                        r_a: int, r_b: int, r_c: int,
                        rx: Sequence[int]) -> np.ndarray:
    """The vector y |-> (r_a*A~ + r_b*B~ + r_c*C~)(rx, y) on the hypercube.

    Equals (r_a*A + r_b*B + r_c*C)^T eq(rx); this is the first factor of
    Spartan's second sumcheck.
    """
    eq_rows = eq_table(rx)
    acc = np.zeros(a.num_cols, dtype=np.uint64)
    for m, coeff in ((a, r_a), (b, r_b), (c, r_c)):
        acc = fv.add(acc, fv.mul_scalar(m.transpose_matvec(eq_rows), coeff))
    return acc
