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
from ..field.vector import (_MASK22, _MASK32, _SHIFT22, _SHIFT32, _SHIFT44,
                            _reduce_rows)

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


def _sort_order(keys: np.ndarray) -> np.ndarray | None:
    """The stable permutation sorting ``keys`` (non-negative); None when
    they already are non-decreasing (the :meth:`SparseMatrix.from_arrays`
    invariant).

    Sorts the packed words ``(key << b) | entry_index`` in place: they are
    unique, so numpy's vectorized unstable sort yields the stable
    permutation in its low ``b`` bits, ~3x faster than a stable argsort.
    """
    n = len(keys)
    if n == 0 or np.all(keys[:-1] <= keys[1:]):
        return None
    b = n.bit_length()                      # entry indices are < n < 2^b
    if int(keys.max()).bit_length() + b > 64:
        return np.argsort(keys, kind="stable")
    packed = keys.astype(np.uint64)
    packed <<= np.uint64(b)
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    packed &= np.uint64((1 << b) - 1)
    return packed.view(np.int64)


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
        # Every gather below trusts these: a negative column would wrap
        # silently in ``x[cols]``.
        if len(self.rows) and (
                self.rows.min() < 0 or self.rows.max() >= num_rows
                or self.cols.min() < 0 or self.cols.max() >= num_cols):
            bad = np.flatnonzero((self.rows < 0) | (self.rows >= num_rows)
                                 | (self.cols < 0) | (self.cols >= num_cols))[0]
            raise IndexError(f"entry ({self.rows[bad]},{self.cols[bad]}) "
                             f"outside {num_rows}x{num_cols}")
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
            order = _sort_order(self.rows)
            sorted_rows = self.rows if order is None else self.rows[order]
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


#: Elements per kernel tile of a plane group: the seven ``(L, T)`` tile
#: temporaries (gathered operand, two halves, three limbs, one product)
#: are 8 B * 2^15 each, ~1.8 MB together — cache-sized, like
#: :data:`repro.field.vector._TILE`.  It is also the residual rule: a row
#: population with fewer entries than one tile (L * m < PLANE_TILE) cannot
#: amortize its ~70 numpy calls and goes to :meth:`SparseMatrix.matvec`.
PLANE_TILE = 1 << 15
#: Most planes a group may have, i.e. products summed into one set of limb
#: accumulators; a longer row is cut into pieces (:func:`_group_rows`).
#: It is :func:`repro.field.vector._reduce_rows`' overflow bound.
PLANE_CAP = fv.LIMB_SUM_CAP
#: Rows per Goldilocks reduction: per-call overhead is ~60 numpy calls, so
#: it is paid once per 2^14 rows, not once per tile.
REDUCE_ROWS = 1 << 14

#: Entries gathered per step while the planes are built: bounds the build's
#: index temporaries at 2 MB however many non-zeros a group has.
_BUILD_ELEMENTS = 1 << 18


def _plane_matvec(idx: np.ndarray, vals: np.ndarray, x: np.ndarray,
                  tile: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Exact canonical column sums ``sum_j vals[j, r] * x[idx[j, r]]`` of
    one plane group (at most :data:`PLANE_CAP` planes), for ANY uint64
    ``vals`` and ``x``.

    Limb-deferred: per ``(L, T)`` tile the operand is gathered once, the
    six 32 x 22-bit partial products are each summed down the plane axis
    with a contiguous add (no ``reduceat``, no per-product reduction), and
    :func:`_reduce_rows` runs once per :data:`REDUCE_ROWS` rows.  ``tile``
    (7 rows of a tile's elements) and ``acc`` (7 rows of
    :data:`REDUCE_ROWS`) are the caller's scratch.
    """
    height, m = idx.shape
    if height == 1:
        return fv.mul(vals[0], x[idx[0]])
    out = np.empty(m, dtype=np.uint64)
    width = max(1, PLANE_TILE // height)
    for r0 in range(0, m, REDUCE_ROWS):
        r1 = min(m, r0 + REDUCE_ROWS)
        for t0 in range(r0, r1, width):
            t1 = min(r1, t0 + width)
            b, al, ah, b0, b1, b2, prod = (
                s[:height * (t1 - t0)].reshape(height, t1 - t0) for s in tile)
            # Bounds were checked when the matrices were constructed.
            np.take(x, idx[:, t0:t1], out=b, mode="clip")
            np.bitwise_and(vals[:, t0:t1], _MASK32, out=al)
            np.right_shift(vals[:, t0:t1], _SHIFT32, out=ah)
            np.bitwise_and(b, _MASK22, out=b0)
            np.right_shift(b, _SHIFT22, out=b1)
            np.bitwise_and(b1, _MASK22, out=b1)
            np.right_shift(b, _SHIFT44, out=b2)
            for k, (half, limb) in enumerate(((al, b0), (al, b1), (al, b2),
                                              (ah, b0), (ah, b1), (ah, b2))):
                np.multiply(half, limb, out=prod)
                np.add.reduce(prod, axis=0, out=acc[k, t0 - r0:t1 - r0])
        out[r0:r1] = _reduce_rows(acc[:6, :r1 - r0], acc[6, :r1 - r0])
    return out


def _group_rows(out_ids: np.ndarray, gather: np.ndarray, vals: np.ndarray,
                num_out: int, out_offset: int = 0):
    """Split COO entries (output row, gather index, value) by row population.

    Returns ``(groups, residual)``.  ``groups`` holds one ``(rows, pieces,
    idx, vals)`` per population L whose entries fill a kernel tile:
    ``rows`` the m output ids (ascending, so a banded gather stays local;
    a slice when they are consecutive) and ``idx`` / ``vals`` C-contiguous
    planes — plane j is the j-th entry of every row, in final order.  A
    row longer than :data:`PLANE_CAP` is cut into ``pieces`` equal runs
    laid side by side (piece k of row r is column ``r * pieces + k``; the
    last piece is padded with zero values), so no group is higher than
    the cap and a long thin population still fills its tiles.  ``residual`` is
    the ``(rows, gather, vals)`` of every other entry, row-sorted.  The
    stable sort permutation lives only inside this call.
    """
    order = _sort_order(out_ids)
    counts = np.bincount(out_ids, minlength=num_out)
    hist = np.bincount(counts)
    planar = np.arange(len(hist)) * hist >= PLANE_TILE
    if not planar.any():
        if order is not None:
            out_ids, gather, vals = out_ids[order], gather[order], vals[order]
        return [], (out_ids + out_offset, gather, vals)
    starts = np.cumsum(counts) - counts
    groups = []
    for length in np.flatnonzero(planar):
        rows = np.flatnonzero(counts == length)
        m, first = len(rows), starts[rows]
        pieces = -(-length // PLANE_CAP)
        height = -(-length // pieces)
        idx = np.zeros((height, pieces * m), dtype=np.int64)
        plane_vals = np.zeros((height, pieces * m), dtype=np.uint64)
        step = max(1, _BUILD_ELEMENTS // m)
        for k in range(pieces):
            piece = slice(k, None, pieces)
            j_end = min(length, (k + 1) * height)
            for j0 in range(k * height, j_end, step):
                j1 = min(j_end, j0 + step)
                at = first + np.arange(j0, j1)[:, None]
                if order is not None:
                    at = order[at]
                into = slice(j0 - k * height, j1 - k * height)
                np.take(gather, at, out=idx[into, piece], mode="clip")
                np.take(vals, at, out=plane_vals[into, piece], mode="clip")
        rows += out_offset
        if rows[-1] - rows[0] == m - 1:     # a run: write, don't scatter
            rows = slice(rows[0], rows[-1] + 1)
        groups.append((rows, pieces, idx, plane_vals))
    left = np.flatnonzero(~planar[counts] & (counts > 0))
    sizes = counts[left]
    # Entry runs of the leftover rows, flattened: each run's start minus
    # the number of leftover entries before it, plus a running index.
    at = np.arange(sizes.sum()) \
        + np.repeat(starts[left] - (np.cumsum(sizes) - sizes), sizes)
    if order is not None:
        at = order[at]
    return groups, (np.repeat(left + out_offset, sizes), gather[at], vals[at])


class _PlaneLayout:
    """One direction of :class:`StackedMatrices`: plane groups plus ONE
    row-sorted residual :class:`SparseMatrix` (None when nothing is left
    over)."""

    def __init__(self, num_out: int, num_in: int, groups, residual):
        self.num_out, self.num_in = num_out, num_in
        self.groups = groups
        rows, gather, vals = residual
        self.residual = None
        if len(rows):
            self.residual = SparseMatrix(num_out, num_in, rows, gather, vals)
            self.residual._group_plan()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.uint64)
        if x.shape[0] != self.num_in:
            raise ValueError(f"vector length {x.shape[0]} != num_cols {self.num_in}")
        out = self.residual.matvec(x) if self.residual is not None \
            else np.zeros(self.num_out, dtype=np.uint64)
        if self.groups:
            # Per call, not per object: two threads may share a key.
            tile = np.empty((7, max(PLANE_TILE, PLANE_CAP)), dtype=np.uint64)
            acc = np.empty((7, REDUCE_ROWS), dtype=np.uint64)
            for rows, pieces, idx, vals in self.groups:
                sums = _plane_matvec(idx, vals, x, tile, acc)
                if pieces > 1:      # a long row's pieces sit side by side
                    sums = _segment_sums(sums,
                                         np.arange(0, len(sums), pieces))
                out[rows] = sums
        return out


class StackedMatrices:
    """The A, B, C matrices of an R1CS laid out for fused SpMV passes.

    Spartan's prover needs all three products A z, B z, C z (sumcheck #1)
    and the random combination (r_a A + r_b B + r_c C)^T eq (sumcheck #2).
    R1CS rows carry O(1) non-zeros (Sec. V-A), so per direction the rows
    are grouped by population: rows with L non-zeros become ``(L, m)``
    index/value planes whose row sum is a contiguous add with ONE modular
    reduction per row (:func:`_plane_matvec`) — output-stationary like
    NoCap's SpMV unit, with the row length as the tile height.  Groups too
    small to fill a kernel tile (:data:`PLANE_TILE`) share one residual
    :class:`SparseMatrix` per direction, so a small circuit still runs one
    fused segmented-sum pass.  Resident: ``idx`` + ``vals``, 16 B per
    non-zero per direction; no stacked COO copy and no sort permutation
    outlives construction.
    """

    def __init__(self, mats: List[SparseMatrix]):
        if not mats:
            raise ValueError("need at least one matrix to stack")
        n_rows, n_cols = mats[0].num_rows, mats[0].num_cols
        if any(m.num_rows != n_rows or m.num_cols != n_cols for m in mats):
            raise ValueError("stacked matrices must share a shape")
        self.count = len(mats)
        self.num_rows, self.num_cols = n_rows, n_cols
        # Transposed first: output rows are the original columns and the
        # gather index points into a stack of ``count`` scaled copies of
        # the input (see scaled_transpose_matvec).  The concatenated
        # coordinates and their argsort are the build's peak; they are
        # gone before the forward planes are allocated.
        self._transposed = _PlaneLayout(
            n_cols, self.count * n_rows,
            *_group_rows(np.concatenate([m.cols for m in mats]),
                         np.concatenate([m.rows + np.int64(i * n_rows)
                                         for i, m in enumerate(mats)]),
                         np.concatenate([m.vals for m in mats]), n_cols))
        # Forward: one (count*n_rows) x n_cols system whose output slices
        # are the individual products, grouped per member straight from
        # its own arrays; only the leftovers are concatenated.
        groups, leftovers = [], []
        for i, m in enumerate(mats):
            member_groups, residual = _group_rows(m.rows, m.cols, m.vals,
                                                  n_rows, i * n_rows)
            groups += member_groups
            leftovers.append(residual)
        self._forward = _PlaneLayout(
            self.count * n_rows, n_cols, groups,
            [np.concatenate(part) for part in zip(*leftovers)])

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
        # The scaled copies only feed the gather-multiply, which accepts
        # any uint64 representative — skip canonicalization.
        scaled = np.concatenate(
            [fv.mul_scalar(x, int(c), canonical=False) for c in coeffs])
        return self._transposed.matvec(scaled)
