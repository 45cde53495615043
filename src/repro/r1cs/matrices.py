"""Sparse matrices for R1CS constraint systems (Sec. II-B).

The A, B, C matrices of an R1CS mostly encode permutations — O(1) non-zeros
per row, concentrated near the diagonal — which is what makes NoCap's
output-stationary SpMV mapping effective (Sec. V-A).  This module stores
them in coordinate form with numpy index arrays and provides exact
modular sparse matrix-vector products.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from ..field import vector as fv
from ..field.goldilocks import MODULUS

#: Row segments per :meth:`SparseMatrix.matvec` block.  A block's gather,
#: product and half-sum temporaries (~40 B per non-zero) stay ~10 MB at
#: any matrix size; whole-vector passes (58 MB per temporary at 2^20)
#: would set the prover's peak RSS.  2^17 also keeps every stacked system
#: up to 2^15 constraints (3 * 2^15 segments) in one block.
MATVEC_BLOCK_SEGMENTS = 1 << 17


def _segment_sums(prods: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact mod-p sum of each ``starts``-delimited run of ``prods``: the
    32-bit halves accumulate separately (uint64 holds up to 2^32 such
    terms), then :func:`repro.field.vector.combine_halves` recombines the
    raw half-sums — no per-half canonicalization needed."""
    lo_half, hi_half = fv.halves(prods)
    lo = np.add.reduceat(lo_half, starts, dtype=np.uint64)
    hi = np.add.reduceat(hi_half, starts, dtype=np.uint64)
    return fv.combine_halves(lo, hi)


class SparseMatrix:
    """COO sparse matrix over GF(p) with fast modular SpMV."""

    def __init__(self, num_rows: int, num_cols: int,
                 rows: np.ndarray | None = None,
                 cols: np.ndarray | None = None,
                 vals: np.ndarray | None = None):
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.rows = np.asarray(rows if rows is not None else [], dtype=np.int64)
        self.cols = np.asarray(cols if cols is not None else [], dtype=np.int64)
        self.vals = np.asarray(vals if vals is not None else [], dtype=np.uint64)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValueError("rows, cols, vals must have equal length")
        self._groups: tuple | None = None      # lazy matvec gather plan
        self._transposed: "SparseMatrix | None" = None

    def __getstate__(self):
        """Pickle only the coordinate arrays.

        The matvec gather plan and the transposed view are derived caches
        a receiver can rebuild lazily; dropping them roughly halves the
        pickled size of a proving key, which matters where batch workers
        must be spawned rather than forked (see ProverPool.prove_batch).
        """
        state = self.__dict__.copy()
        state["_groups"] = None
        state["_transposed"] = None
        return state

    @classmethod
    def from_entries(cls, num_rows: int, num_cols: int,
                     entries: Iterable[Tuple[int, int, int]]) -> "SparseMatrix":
        """Build from (row, col, value) triples; duplicate coordinates sum.

        Vectorized (lexsort + grouped reduction) so that circuits with
        millions of matrix entries compile in seconds.
        """
        entries = list(entries)
        if not entries:
            return cls(num_rows, num_cols)
        return cls.from_arrays(num_rows, num_cols,
                               [e[0] for e in entries],
                               [e[1] for e in entries],
                               [e[2] for e in entries])

    @classmethod
    def from_arrays(cls, num_rows: int, num_cols: int,
                    row_list, col_list, val_list) -> "SparseMatrix":
        """Build from parallel row/col/value lists (the fast path used by
        :meth:`repro.r1cs.builder.Circuit.compile`); duplicates sum."""
        if not row_list:
            return cls(num_rows, num_cols)
        rows = np.array(row_list, dtype=np.int64)
        cols = np.array(col_list, dtype=np.int64)
        vals = np.array([v % MODULUS for v in val_list], dtype=np.uint64)
        if rows.min() < 0 or rows.max() >= num_rows or \
                cols.min() < 0 or cols.max() >= num_cols:
            bad = np.flatnonzero((rows < 0) | (rows >= num_rows)
                                 | (cols < 0) | (cols >= num_cols))[0]
            raise IndexError(f"entry ({rows[bad]},{cols[bad]}) outside "
                             f"{num_rows}x{num_cols}")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        # Group duplicates and sum their 32-bit halves exactly (uint64
        # holds up to 2^32 terms per coordinate), then recombine mod p.
        new_group = np.empty(len(rows), dtype=bool)
        new_group[0] = True
        new_group[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
        starts = np.flatnonzero(new_group)
        lo = np.add.reduceat(vals & np.uint64(0xFFFFFFFF), starts)
        hi = np.add.reduceat(vals >> np.uint64(32), starts)
        summed = fv.combine_halves(lo, hi)
        keep = summed != 0
        return cls(num_rows, num_cols,
                   rows[starts][keep], cols[starts][keep], summed[keep])

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def _group_plan(self):
        """Lazy gather plan for :meth:`matvec`: a permutation bringing the
        entries into row order, segment starts for ``np.add.reduceat``, and
        the distinct row ids.  ``order`` is None when the entries are
        already row-sorted (the :meth:`from_arrays` invariant), skipping
        the permutation pass entirely."""
        if self._groups is None:
            rows = self.rows
            if len(rows) == 0 or np.all(rows[:-1] <= rows[1:]):
                order, sorted_rows = None, rows
            else:
                order = np.argsort(rows, kind="stable")
                sorted_rows = rows[order]
            new_group = np.ones(len(sorted_rows), dtype=bool)
            new_group[1:] = np.diff(sorted_rows) != 0
            starts = np.flatnonzero(new_group)
            self._groups = (order, starts, sorted_rows[starts])
        return self._groups

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact y = M x over GF(p).

        The scatter-add is a segmented reduction over the row-sorted
        products (:func:`_segment_sums`).  Matrices with more than
        :data:`MATVEC_BLOCK_SEGMENTS` non-empty rows are walked in blocks
        of that many row segments — output-stationary, like NoCap's SpMV
        unit (Sec. V-A): gather, multiply and reduce one block's entries
        into its output slice before touching the next, so temporaries
        are block-sized instead of nnz-sized.
        """
        x = np.asarray(x, dtype=np.uint64)
        if x.shape[0] != self.num_cols:
            raise ValueError(f"vector length {x.shape[0]} != num_cols {self.num_cols}")
        if self.nnz == 0:
            return np.zeros(self.num_rows, dtype=np.uint64)
        order, starts, row_ids = self._group_plan()
        # Non-canonical representatives are fine: the split-accumulate
        # is exact for any uint64 terms.
        if len(starts) <= MATVEC_BLOCK_SEGMENTS:
            prods = fv.mul(self.vals, x[self.cols], canonical=False)
            if order is not None:
                prods = prods[order]
            combined = _segment_sums(prods, starts)
        else:
            combined = np.empty(len(starts), dtype=np.uint64)
            for s0 in range(0, len(starts), MATVEC_BLOCK_SEGMENTS):
                s1 = min(len(starts), s0 + MATVEC_BLOCK_SEGMENTS)
                e0 = starts[s0]
                e1 = starts[s1] if s1 < len(starts) else self.nnz
                # The plan's permutation picks the block's entries; no
                # full-length permuted copy is ever made.
                sel = slice(e0, e1) if order is None else order[e0:e1]
                prods = fv.mul(self.vals[sel], x[self.cols[sel]],
                               canonical=False)
                combined[s0:s1] = _segment_sums(prods, starts[s0:s1] - e0)
        if len(row_ids) == self.num_rows:
            # Every row has at least one entry: row_ids is 0..num_rows-1
            # in order, so the segment sums ARE the output.
            return combined
        out = np.zeros(self.num_rows, dtype=np.uint64)
        out[row_ids] = combined
        return out

    def transpose_matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact y = M^T x over GF(p).

        The transposed view (and its matvec gather plan) is built once and
        cached — SparseMatrix instances are treated as immutable.
        """
        if self._transposed is None:
            self._transposed = SparseMatrix(self.num_cols, self.num_rows,
                                            self.cols, self.rows, self.vals)
        return self._transposed.matvec(x)

    def to_dense(self) -> np.ndarray:
        """Dense object-dtype matrix (tests / tiny systems only)."""
        out = np.zeros((self.num_rows, self.num_cols), dtype=object)
        for r, c, v in zip(self.rows, self.cols, self.vals):
            out[r, c] = (out[r, c] + int(v)) % MODULUS
        return out

    def entries(self) -> List[Tuple[int, int, int]]:
        return [(int(r), int(c), int(v))
                for r, c, v in zip(self.rows, self.cols, self.vals)]

    def pad_to(self, num_rows: int, num_cols: int) -> "SparseMatrix":
        """Embed into a larger zero matrix (R1CS power-of-two padding)."""
        if num_rows < self.num_rows or num_cols < self.num_cols:
            raise ValueError("pad_to cannot shrink a matrix")
        return SparseMatrix(num_rows, num_cols, self.rows, self.cols, self.vals)

    def bandwidth(self) -> int:
        """Max |row - col| over non-zeros: the paper's 'limited-bandwidth'
        property that gives SpMV its input-vector reuse."""
        if self.nnz == 0:
            return 0
        return int(np.max(np.abs(self.rows - self.cols)))


class StackedMatrices:
    """The A, B, C matrices of an R1CS stacked for fused SpMV passes.

    Spartan's prover needs all three products A z, B z, C z (sumcheck #1)
    and the random combination (r_a A + r_b B + r_c C)^T eq (sumcheck #2).
    Issuing them as three separate SpMVs streams the input vector and the
    scatter/reduce machinery three times; stacking the coordinate arrays
    once turns each into a single gather + multiply + segmented-reduce
    pass — the same batching NoCap gets by time-multiplexing the three
    matrices through one output-stationary SpMV unit (Sec. V-A).
    """

    def __init__(self, mats: List[SparseMatrix]):
        if not mats:
            raise ValueError("need at least one matrix to stack")
        n_rows, n_cols = mats[0].num_rows, mats[0].num_cols
        if any(m.num_rows != n_rows or m.num_cols != n_cols for m in mats):
            raise ValueError("stacked matrices must share a shape")
        self.count = len(mats)
        self.num_rows, self.num_cols = n_rows, n_cols
        offset_rows = np.concatenate(
            [m.rows + np.int64(i * n_rows) for i, m in enumerate(mats)])
        cols = np.concatenate([m.cols for m in mats])
        vals = np.concatenate([m.vals for m in mats])
        # Forward: one (count*n_rows) x n_cols matrix whose output slices
        # are the individual products.  Each member's rows are sorted, and
        # the offsets keep the concatenation sorted, so the matvec gather
        # plan needs no permutation.
        self._forward = SparseMatrix(self.count * n_rows, n_cols,
                                     offset_rows, cols, vals)
        # Transposed: output rows are the original columns; the gather
        # index points into a stack of ``count`` scaled copies of the
        # input vector, which folds per-matrix coefficients into the
        # product (see scaled_transpose_matvec).
        self._transposed = SparseMatrix(n_cols, self.count * n_rows,
                                        cols, offset_rows, vals)
        # Both gather plans are built here, so the transposed plan's
        # argsort never runs between a prover's commit and its first open.
        self._forward._group_plan()
        self._transposed._group_plan()

    def matvec_all(self, x: np.ndarray) -> List[np.ndarray]:
        """[M_0 x, M_1 x, ...] in ONE fused SpMV pass."""
        stacked = self._forward.matvec(x)
        n = self.num_rows
        return [stacked[i * n:(i + 1) * n] for i in range(self.count)]

    def scaled_transpose_matvec(self, coeffs, x: np.ndarray) -> np.ndarray:
        """sum_i coeffs[i] * M_i^T x in ONE fused SpMV pass.

        The coefficients are folded into ``count`` scalar-scaled copies of
        ``x``; the stacked transpose then gathers each matrix's entries
        from its own copy, so the combination costs no extra pass over the
        non-zeros.
        """
        if len(coeffs) != self.count:
            raise ValueError("need one coefficient per stacked matrix")
        # The scaled copies only feed the matvec's gather-multiply, which
        # accepts any uint64 representative — skip canonicalization.
        scaled = np.concatenate(
            [fv.mul_scalar(x, int(c), canonical=False) for c in coeffs])
        return self._transposed.matvec(scaled)
