"""Sparse matrices for R1CS constraint systems (Sec. II-B).

The A, B, C matrices of an R1CS mostly encode permutations — O(1) non-zeros
per row, concentrated near the diagonal — which is what makes NoCap's
output-stationary SpMV mapping effective (Sec. V-A).  This module stores
them in compressed sparse row form (int32 row offsets and columns, uint64
values) and provides exact modular sparse matrix-vector products.  A
matrix whose rows repeat — a lookup's Horner chain feeds one byte into
255 constraints — may store each distinct row once behind an int32 row
map (:class:`SparseMatrix`, distinct-row form).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from ..field import vector as fv
from ..field.goldilocks import MODULUS
from ..field.vector import (_MASK22, _MASK32, _SHIFT22, _SHIFT32, _SHIFT44,
                            _reduce_rows)
from ..multilinear.mle import eq_table

#: Row segments per :meth:`SparseMatrix.matvec` block.  A block's gather,
#: product and half-sum temporaries (~40 B per non-zero) stay ~10 MB at
#: any matrix size; whole-vector passes (58 MB per temporary at 2^20)
#: would set the prover's peak RSS.  2^17 also keeps every stacked system
#: up to 2^15 constraints (3 * 2^15 segments) in one block.
MATVEC_BLOCK_SEGMENTS = 1 << 17

#: Exclusive bound on a dimension, a non-zero count and every stacked
#: gather range: each index a key stores (row offsets, columns, row maps,
#: plane ``idx``, output rows) is int32, half the bytes of int64.
INDEX_LIMIT = 1 << 31

#: Entries handled per step while a layout is built or a sort key packed:
#: bounds the per-entry temporaries (about seven arrays of this many
#: words) at ~2 MB however many non-zeros a matrix has.
_BUILD_ELEMENTS = 1 << 15

_MASK16 = np.uint64(0xFFFF)


def _segment_sums(prods: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact mod-p sum of each ``starts``-delimited run of ``prods``: the
    32-bit halves accumulate separately (uint64 holds up to 2^32 such
    terms), then :func:`repro.field.vector.combine_halves` recombines the
    raw half-sums — no per-half canonicalization needed."""
    lo_half, hi_half = fv.halves(prods)
    lo = np.add.reduceat(lo_half, starts, dtype=np.uint64)
    hi = np.add.reduceat(hi_half, starts, dtype=np.uint64)
    return fv.combine_halves(lo, hi)


def _int32_coords(rows, cols, num_rows: int, num_cols: int):
    """``rows`` / ``cols`` as the int32 arrays a key stores, checked as
    given before they are narrowed: a float would truncate and an
    over-range integer would wrap into range on the cast, and every gather
    trusts the bounds (a negative column would wrap silently in
    ``x[cols]``)."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    if len(rows) != len(cols):
        raise ValueError("rows, cols, vals must have equal length")
    if len(rows):
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise TypeError(f"coordinates must be integers, not "
                            f"{rows.dtype} / {cols.dtype}")
        if (rows.min() < 0 or rows.max() >= num_rows
                or cols.min() < 0 or cols.max() >= num_cols):
            bad = np.flatnonzero((rows < 0) | (rows >= num_rows)
                                 | (cols < 0) | (cols >= num_cols))[0]
            raise IndexError(f"entry ({rows[bad]},{cols[bad]}) "
                             f"outside {num_rows}x{num_cols}")
    return rows.astype(np.int32, copy=False), cols.astype(np.int32, copy=False)


def _field_values(values) -> np.ndarray:
    """``values`` reduced mod p as a new uint64 array: one vectorized pass
    when they are integers in [0, 2^64), exact Python ints for anything
    else (negative, past 64 bits)."""
    try:
        if isinstance(values, np.ndarray) and values.dtype.kind == "i" \
                and values.size and values.min() < 0:
            raise OverflowError("negative values")
        vals = np.array(values, dtype=np.uint64)
    except OverflowError:
        return np.array([int(v) % MODULUS for v in values], dtype=np.uint64)
    vals[vals >= MODULUS] -= np.uint64(MODULUS)     # 2^64 - 1 < 2p
    return vals


def _row_offsets(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """The int32 CSR offsets (``num_rows + 1``) of row-sorted ``rows``.
    An empty matrix's offsets are ``np.zeros`` alone, pages the OS has
    not yet handed out however many rows there are."""
    indptr = np.zeros(num_rows + 1, dtype=np.int32)
    if len(rows):
        np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr


def _sort_order(keys: np.ndarray) -> np.ndarray | None:
    """The stable permutation sorting ``keys`` (non-negative); None when
    they already are non-decreasing.

    Sorts the packed words ``(key << b) | entry_index`` in place: they are
    unique, so numpy's vectorized unstable sort yields the stable
    permutation in its low ``b`` bits, ~3x faster than a stable argsort.
    The indices are or-ed in a step at a time, so the result is the one
    n-word array the sort allocates.
    """
    n = len(keys)
    if n == 0 or bool(np.all(keys[:-1] <= keys[1:])):
        return None
    b = n.bit_length()                      # entry indices are < n < 2^b
    if int(keys.max()).bit_length() + b > 64:
        return np.argsort(keys, kind="stable")
    packed = keys.astype(np.uint64)
    packed <<= np.uint64(b)
    for s in range(0, n, _BUILD_ELEMENTS):
        packed[s:s + _BUILD_ELEMENTS] |= np.arange(
            s, min(n, s + _BUILD_ELEMENTS), dtype=np.uint64)
    packed.sort()
    packed &= np.uint64((1 << b) - 1)
    return packed.view(np.int64)


def _check_shape(num_rows: int, num_cols: int) -> None:
    if num_rows >= INDEX_LIMIT or num_cols >= INDEX_LIMIT:
        raise ValueError(f"a {num_rows}x{num_cols} matrix exceeds int32 "
                         f"indices")


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """Row id of each entry of the CSR offsets ``indptr`` (int32)."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int32),
                     np.diff(indptr))


def _fold(row_map: np.ndarray, y: np.ndarray, num_stored: int) -> np.ndarray:
    """P^T y for the row map ``row_map``: per stored row, the exact mod-p
    sum of ``y`` over the rows that are it (0 where none is).

    Each word's four 16-bit limbs are summed per stored row by
    ``np.bincount`` in float64 — exact, as a limb sum stays below 2^16 *
    :data:`INDEX_LIMIT` = 2^47 < 2^53 — and pairs of limb sums recombine
    into the 32-bit half-sums :func:`repro.field.vector.combine_halves`
    takes.  Any uint64 ``y`` is a valid input."""
    y = np.asarray(y, dtype=np.uint64)
    if y.shape != row_map.shape:
        raise ValueError(f"vector length {y.shape[0]} != num_rows "
                         f"{len(row_map)}")
    limbs = [np.bincount(row_map, weights=(y >> np.uint64(s)) & _MASK16,
                         minlength=num_stored).astype(np.uint64)
             for s in (0, 16, 32, 48)]
    return fv.combine_halves(limbs[0] + (limbs[1] << np.uint64(16)),
                             limbs[2] + (limbs[3] << np.uint64(16)))


class SparseMatrix:
    """Sparse matrix over GF(p) in compressed sparse row (CSR) form, with
    fast modular SpMV.

    CSR is the stored form: stored row s's entries are ``cols[indptr[s]:
    indptr[s + 1]]`` and ``vals[...]``, so a matrix holds 12 B per stored
    non-zero (int32 column, uint64 value) plus 4 B per stored row (the
    int32 ``indptr``, monotone from 0 to :attr:`stored_nnz` <
    :data:`INDEX_LIMIT`), not a row id per non-zero.  The constructor
    takes coordinates in any order and sorts them by row once (stably: a
    row keeps its entries' given order, and duplicate coordinates stay
    separate entries that every product sums); :meth:`from_csr` adopts
    row offsets as they are.  :attr:`rows`, one row id per non-zero, is
    derived on each read for tests and oracles; no product reads it.

    Distinct-row form.  Where rows repeat, each distinct row can be stored
    once: ``row_map`` (int32, 4 B per row) then names the stored row that
    each row is, so M = P S with S the stored rows and P the 0/1 matrix
    selecting ``row_map[r]`` for row r.  :meth:`matvec` expands (S x, then
    one gather through the map) and :meth:`transpose_matvec` folds (S^T
    applied to P^T y, :meth:`fold`).  ``row_map`` is None in plain CSR,
    where the stored rows are the rows.  :attr:`nnz` counts the matrix's
    non-zeros, repeated rows included; :meth:`expanded` is the same matrix
    in plain CSR.

    SpMV.  :meth:`matvec` is the one forward product, and the matrix
    picks its kernel: when every stored row holds the same L entries
    (1 <= L <= :data:`PLANE_CAP`) and they fill a kernel tile (L * stored
    rows >= :data:`PLANE_TILE`), ``cols`` / ``vals`` viewed as ``(L,
    rows)`` planes run :func:`_plane_matvec`, one Goldilocks reduction per
    row; any other matrix runs the segmented sum.  The transposed
    combination the prover needs is :class:`StackedMatrices`'.

    Instances are immutable, and that is load-bearing: the cached gather
    plan assumes the arrays never change.
    """

    def __init__(self, num_rows: int, num_cols: int,
                 rows: np.ndarray | None = None,
                 cols: np.ndarray | None = None,
                 vals: np.ndarray | None = None):
        _check_shape(num_rows, num_cols)
        rows, cols = _int32_coords(
            rows if rows is not None else [],
            cols if cols is not None else [], num_rows, num_cols)
        vals = np.asarray(vals if vals is not None else [], dtype=np.uint64)
        if len(vals) != len(rows):
            raise ValueError("rows, cols, vals must have equal length")
        order = _sort_order(rows)
        if order is not None:
            rows, cols, vals = (np.take(a, order) for a in (rows, cols, vals))
        self._adopt(num_rows, num_cols, _row_offsets(rows, num_rows), cols,
                    vals)

    def _adopt(self, num_rows: int, num_cols: int, indptr: np.ndarray,
               cols: np.ndarray, vals: np.ndarray,
               row_map: np.ndarray | None = None) -> None:
        if len(vals) >= INDEX_LIMIT:
            raise ValueError(f"{len(vals)} entries exceed int32 offsets")
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.indptr, self.cols, self.vals = indptr, cols, vals
        self.row_map = row_map
        self._groups: tuple | None = None      # lazy matvec gather plan

    @classmethod
    def from_csr(cls, num_rows: int, num_cols: int, indptr, cols, vals,
                 row_map=None) -> "SparseMatrix":
        """Adopt CSR arrays (not copied where they already are int32 /
        uint64): ``indptr`` rises from 0 to ``len(cols)`` and every column
        is in range.  Without ``row_map`` it has ``num_rows + 1`` entries;
        with one, it has one per stored row plus one, and ``row_map`` has
        ``num_rows`` entries, each a stored row."""
        _check_shape(num_rows, num_cols)
        indptr = np.asarray(indptr)
        vals = np.asarray(vals, dtype=np.uint64)
        rows_held = num_rows if row_map is None else len(indptr) - 1
        if not (indptr.dtype.kind in "iu" and indptr.shape == (rows_held + 1,)
                and indptr[0] == 0 and indptr[-1] == len(vals)
                and bool(np.all(indptr[:-1] <= indptr[1:]))):
            raise ValueError(f"indptr must rise from 0 to {len(vals)} in "
                             f"{rows_held + 1} entries")
        cols = np.asarray(cols)
        if len(cols) != len(vals):
            raise ValueError("cols, vals must have equal length")
        if len(cols) and (cols.dtype.kind not in "iu" or cols.min() < 0
                          or cols.max() >= num_cols):
            raise IndexError(f"columns must be integers in 0..{num_cols - 1}")
        if row_map is not None:
            row_map = np.asarray(row_map)
            if row_map.shape != (num_rows,):
                raise ValueError(f"row_map must have {num_rows} entries")
            if num_rows and (row_map.dtype.kind not in "iu"
                             or row_map.min() < 0
                             or row_map.max() >= rows_held):
                raise IndexError(f"row_map entries must be integers in "
                                 f"0..{rows_held - 1}")
            row_map = row_map.astype(np.int32, copy=False)
        self = cls.__new__(cls)
        self._adopt(num_rows, num_cols, indptr.astype(np.int32, copy=False),
                    cols.astype(np.int32, copy=False), vals, row_map)
        return self

    def __getstate__(self):
        """Pickle only the CSR arrays and the row map.

        The matvec gather plan is a derived cache a receiver can rebuild
        lazily; dropping it keeps a pickled proving key to what it
        stores, which matters where batch workers must be spawned rather
        than forked (see parallel.pool.prove_batch).
        """
        state = self.__dict__.copy()
        state["_groups"] = None
        return state

    @classmethod
    def from_entries(cls, num_rows: int, num_cols: int,
                     entries: Iterable[Tuple[int, int, int]]) -> "SparseMatrix":
        """Build from (row, col, value) triples; duplicate coordinates sum."""
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
        """Build from parallel row/col/value sequences or arrays (the fast
        path :meth:`repro.r1cs.builder.Circuit.compile` builds each
        matrix's stored rows through): duplicate coordinates sum, zero
        sums drop, and each row's entries are ordered by column.
        Vectorized throughout — coordinates checked and narrowed to int32
        first, values reduced in one pass, one lexsort, a grouped
        reduction — and built as CSR directly."""
        if len(row_list) == 0:
            return cls(num_rows, num_cols)
        rows, cols = _int32_coords(row_list, col_list, num_rows, num_cols)
        vals = _field_values(val_list)
        if len(vals) != len(rows):
            raise ValueError("rows, cols, vals must have equal length")
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
        rows = rows[starts][keep]
        return cls.from_csr(num_rows, num_cols, _row_offsets(rows, num_rows),
                            cols[starts][keep], summed[keep])

    @property
    def num_stored(self) -> int:
        """Stored rows: ``num_rows`` in plain CSR."""
        return len(self.indptr) - 1

    @property
    def stored_nnz(self) -> int:
        """Stored non-zeros: what ``cols`` / ``vals`` hold."""
        return len(self.vals)

    @property
    def nnz(self) -> int:
        """The matrix's non-zeros, each repeated row counted in full."""
        if self.row_map is None:
            return len(self.vals)
        return int(np.diff(self.indptr)[self.row_map].sum(dtype=np.int64))

    @property
    def rows(self) -> np.ndarray:
        """Row id of each non-zero (int32) of :meth:`expanded`, derived on
        every read: for tests and oracles."""
        return _entry_rows(self.expanded().indptr)

    def stored(self) -> "SparseMatrix":
        """The stored rows as a plain CSR matrix (``num_stored`` rows,
        sharing ``indptr`` / ``cols`` / ``vals``); ``self`` in plain CSR."""
        if self.row_map is None:
            return self
        return SparseMatrix.from_csr(self.num_stored, self.num_cols,
                                     self.indptr, self.cols, self.vals)

    def expanded(self) -> "SparseMatrix":
        """The same matrix in plain CSR, every row's entries stored (new
        arrays); ``self`` when it already is."""
        if self.row_map is None:
            return self
        counts = np.diff(self.indptr)[self.row_map]
        indptr = np.zeros(self.num_rows + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        # Entry k of the expansion, in row r, is stored entry
        # self.indptr[row_map[r]] + k - indptr[r].
        take = np.repeat(self.indptr[:-1][self.row_map] - indptr[:-1], counts)
        take += np.arange(len(take), dtype=take.dtype)
        return SparseMatrix.from_csr(self.num_rows, self.num_cols, indptr,
                                     self.cols[take], self.vals[take])

    def fold(self, y: np.ndarray) -> np.ndarray:
        """P^T y: ``y`` (one word per row) summed onto the stored rows,
        exact and canonical mod p (:func:`_fold`); ``y`` itself in plain
        CSR."""
        if self.row_map is None:
            return y
        return _fold(self.row_map, y, self.num_stored)

    def _group_plan(self):
        """Gather plan of the segmented sum: ``(starts, row_ids)``, the
        first entry of each non-empty stored row (``np.add.reduceat``
        segments) and those rows' ids, cached.  When no stored row is
        empty it is ``(indptr[:-1], None)``: a view, nothing cached."""
        if self._groups is not None:
            return self._groups
        counts = np.diff(self.indptr)
        if counts.all():
            return self.indptr[:-1], None
        row_ids = np.flatnonzero(counts).astype(np.int32)
        self._groups = (np.take(self.indptr, row_ids), row_ids)
        return self._groups

    def _plane_width(self) -> int:
        """L when every stored row holds the same L entries, 1 <= L <=
        :data:`PLANE_CAP`, and L * stored rows fills a :data:`PLANE_TILE`;
        0 otherwise."""
        rows, nnz = self.num_stored, self.stored_nnz
        width = nnz // rows if rows else 0
        if not 1 <= width <= PLANE_CAP or nnz < PLANE_TILE \
                or width * rows != nnz:
            return 0
        return width if bool((np.diff(self.indptr) == width).all()) else 0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact y = M x over GF(p), for any uint64 ``x``.

        Output-stationary, like NoCap's SpMV unit (Sec. V-A).  A matrix
        whose stored rows all hold L entries (:meth:`_plane_width`) is
        ``(L, rows)`` planes, strided views of ``cols`` / ``vals``, summed
        by :func:`_plane_matvec`.  Any other is a segmented reduction over
        the row-ordered products (:func:`_segment_sums`), walked in blocks
        of :data:`MATVEC_BLOCK_SEGMENTS` non-empty stored rows: gather,
        multiply and reduce one block's entries into its output slice
        before touching the next, so temporaries are block-sized instead
        of nnz-sized.  A row map then expands the stored rows' sums, one
        gather.
        """
        x = np.asarray(x, dtype=np.uint64)
        if x.shape[0] != self.num_cols:
            raise ValueError(f"vector length {x.shape[0]} != num_cols {self.num_cols}")
        out = self._stored_matvec(x)
        return out if self.row_map is None else np.take(out, self.row_map)

    def _stored_matvec(self, x: np.ndarray) -> np.ndarray:
        """S x: one sum per stored row."""
        nnz = self.stored_nnz
        if nnz == 0:
            return np.zeros(self.num_stored, dtype=np.uint64)
        width = self._plane_width()
        if width:
            idx, vals = (a.reshape(self.num_stored, width).T
                         for a in (self.cols, self.vals))
            return _plane_matvec(idx, vals, x, *_plane_scratch())
        starts, row_ids = self._group_plan()
        # Non-canonical representatives are fine: the split-accumulate
        # is exact for any uint64 terms.
        combined = np.empty(len(starts), dtype=np.uint64)
        for s0 in range(0, len(starts), MATVEC_BLOCK_SEGMENTS):
            s1 = min(len(starts), s0 + MATVEC_BLOCK_SEGMENTS)
            e0 = starts[s0]
            e1 = starts[s1] if s1 < len(starts) else nnz
            prods = fv.mul(self.vals[e0:e1],
                           np.take(x, self.cols[e0:e1], mode="clip"),
                           canonical=False)
            combined[s0:s1] = _segment_sums(prods, starts[s0:s1] - e0)
        if row_ids is None:
            # Every stored row has an entry: the segment sums ARE the output.
            return combined
        out = np.zeros(self.num_stored, dtype=np.uint64)
        out[row_ids] = combined
        return out

    def transpose_matvec(self, x: np.ndarray) -> np.ndarray:
        """Exact y = M^T x over GF(p): S^T (P^T x) with a row map.

        Each stored entry's product with its row's word is summed onto
        its column by the exact limb fold :func:`_fold` (the one row maps
        use), so no transposed copy is built or kept.  Only the reference
        oracle calls it; the prover's transposed SpMV is
        :meth:`StackedMatrices.scaled_transpose_matvec`.
        """
        x = np.asarray(x, dtype=np.uint64)
        if x.shape != (self.num_rows,):
            raise ValueError(f"vector length {len(x)} != num_rows "
                             f"{self.num_rows}")
        prods = fv.mul(self.vals,
                       np.take(self.fold(x), _entry_rows(self.indptr)),
                       canonical=False)
        return _fold(self.cols, prods, self.num_cols)

    def to_dense(self) -> np.ndarray:
        """Dense object-dtype matrix (tests / tiny systems only)."""
        out = np.zeros((self.num_rows, self.num_cols), dtype=object)
        for r, c, v in self.entries():
            out[r, c] = (out[r, c] + v) % MODULUS
        return out

    def entries(self) -> List[Tuple[int, int, int]]:
        """``(row, col, value)`` of every non-zero, repeated rows in full."""
        m = self.expanded()
        return [(int(r), int(c), int(v))
                for r, c, v in zip(m.rows, m.cols, m.vals)]

    def pad_to(self, num_rows: int, num_cols: int) -> "SparseMatrix":
        """Embed into a larger zero matrix (R1CS power-of-two padding);
        shares ``cols`` / ``vals``.  With a row map, the new rows map to
        one empty stored row: an existing one, else one more."""
        if num_rows < self.num_rows or num_cols < self.num_cols:
            raise ValueError("pad_to cannot shrink a matrix")
        extra = num_rows - self.num_rows
        indptr, row_map = self.indptr, self.row_map
        if row_map is None:
            indptr = np.concatenate([indptr, np.full(
                extra, self.stored_nnz, dtype=np.int32)])
        elif extra:
            empty = np.flatnonzero(np.diff(indptr) == 0)
            if len(empty):
                fill = int(empty[0])
            else:
                fill = self.num_stored
                indptr = np.concatenate([indptr, indptr[-1:]])
            row_map = np.concatenate([row_map, np.full(extra, fill,
                                                       dtype=np.int32)])
        return SparseMatrix.from_csr(num_rows, num_cols, indptr, self.cols,
                                     self.vals, row_map)

    def bandwidth(self) -> int:
        """Max |row - col| over non-zeros: the paper's 'limited-bandwidth'
        property that gives SpMV its input-vector reuse."""
        if self.nnz == 0:
            return 0
        m = self.expanded()
        return int(np.max(np.abs(m.rows - m.cols)))


#: Elements per kernel tile of a plane group: the seven ``(L, T)`` tile
#: temporaries (gathered operand, two halves, three limbs, one product)
#: are 8 B * 2^15 each, ~1.8 MB together — cache-sized, like
#: :data:`repro.field.vector._TILE`.  It is also the residual rule: a row
#: population with fewer entries than one tile (L * m < PLANE_TILE) cannot
#: amortize its ~70 numpy calls and takes the segmented sum instead.
PLANE_TILE = 1 << 15
#: Most planes a group may have, i.e. products summed into one set of limb
#: accumulators; a longer row takes the segmented sum (:func:`_group_rows`,
#: :meth:`SparseMatrix._plane_width`).  It is
#: :func:`repro.field.vector._reduce_rows`' overflow bound.
PLANE_CAP = fv.LIMB_SUM_CAP
#: Rows per Goldilocks reduction: per-call overhead is ~60 numpy calls, so
#: it is paid once per 2^14 rows, not once per tile.
REDUCE_ROWS = 1 << 14


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
    :data:`REDUCE_ROWS`) are the caller's scratch (:func:`_plane_scratch`).
    """
    height, m = idx.shape
    if height == 1:
        return fv.mul(vals[0], np.take(x, idx[0], mode="clip"))
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


def _plane_scratch():
    """``(tile, acc)`` scratch of :func:`_plane_matvec`, allocated per
    call rather than per object: two threads may share a key."""
    return (np.empty((7, max(PLANE_TILE, PLANE_CAP)), dtype=np.uint64),
            np.empty((7, REDUCE_ROWS), dtype=np.uint64))


def _group_rows(members, num_out: int):
    """Split the entries of the transposed ``members``, ``(matrix,
    offset)`` pairs, by output row population.

    An entry's output row is its column, and it gathers its row plus its
    member's ``offset``.  An output row holds its members' entries in
    member order, each member's in its own CSR order.

    Returns ``(groups, residual, owned)``.  ``groups`` holds one ``(rows,
    idx, vals)`` per population L (at most :data:`PLANE_CAP`) whose
    entries fill a kernel tile: ``rows`` the m output ids (ascending, so a
    banded gather stays local; a slice when they are consecutive) and
    ``idx`` / ``vals`` ``(L, m)`` planes — plane j is the j-th entry of
    every row.  ``residual`` is ``(rows, indptr, gather, vals)``: every
    other entry, rows longer than the cap included, in CSR form over just
    the output rows that hold one (``rows``, int32).  Every stored index
    is int32, so ``owned``, the bytes of the arrays allocated here, is
    what stays resident.

    The planes and the residual share one buffer per array, which each
    member's entries are scattered into straight from its own arrays
    (:func:`_place`), so nothing is stacked.  The per-row bookkeeping of
    the scatter (running counts, slot bases and strides) is int32, as
    every position in the buffers is (:data:`INDEX_LIMIT`).
    """
    counts = np.zeros(num_out, dtype=np.int32)
    for mat, _offset in members:
        counts += np.bincount(mat.cols, minlength=num_out)
    hist = np.bincount(counts)
    planar = np.arange(len(hist)) * hist >= PLANE_TILE
    planar[PLANE_CAP + 1:] = False          # the residual is exact
    planes, size = [], 0
    for length in np.flatnonzero(planar):
        rows = np.flatnonzero(counts == length).astype(np.int32)
        planes.append((rows, size, length))
        size += length * len(rows)
    left = np.flatnonzero(~planar[counts] & (counts > 0)).astype(np.int32)
    lengths = counts[left]
    del counts                  # not held while the planes are filled

    total = size + int(lengths.sum(dtype=np.int64))
    if total >= INDEX_LIMIT:
        raise ValueError(f"a layout of {total} entries exceeds int32 "
                         f"positions")
    indptr = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=indptr[1:])
    idx_all = np.zeros(total, dtype=np.int32)
    vals_all = np.zeros(total, dtype=np.uint64)
    base = np.zeros(num_out, dtype=np.int32)
    stride = np.ones(num_out, dtype=np.int32)
    groups = []
    for rows, start, length in planes:
        m = len(rows)
        span = slice(start, start + length * m)
        base[rows] = np.arange(start, start + m)
        stride[rows] = m
        if rows[-1] - rows[0] == m - 1:     # a run: write, don't scatter
            rows = slice(rows[0], rows[-1] + 1)
        groups.append((rows, idx_all[span].reshape(length, m),
                       vals_all[span].reshape(length, m)))
    base[left] = size + indptr[:-1]
    placed = np.zeros(num_out, dtype=np.int32)
    for mat, offset in members:
        _place(mat, offset, placed, base, stride, idx_all, vals_all)
    owned = idx_all.nbytes + vals_all.nbytes + sum(
        g[0].nbytes for g in groups if isinstance(g[0], np.ndarray))
    return groups, (left, indptr, idx_all[size:], vals_all[size:]), owned


def _place(mat, offset, placed, base, stride, idx_out, vals_out):
    """Scatter one transposed member's entries into the plane/residual
    buffers.

    The member is read in its CSR order, :data:`_BUILD_ELEMENTS` entries
    at a time.  An entry of output row c (its column) is entry j =
    ``placed[c]`` (the entries of c placed before its chunk, by this
    member or an earlier one) plus its rank among the chunk's entries of
    c, and goes to ``base[c] + j * stride[c]``, gathering its row plus
    ``offset``.  ``placed`` is advanced by each chunk's counts.
    """
    for k0 in range(0, mat.stored_nnz, _BUILD_ELEMENTS):
        k1 = min(mat.stored_nnz, k0 + _BUILD_ELEMENTS)
        # Rows r0..r1 hold the chunk (an int32 key: a Python int would
        # cast all of ``indptr`` on each call).
        r0, r1 = mat.indptr.searchsorted(
            np.array([k0, k1 - 1], dtype=np.int32), side="right") - 1
        idx = _entry_rows(np.clip(mat.indptr[r0:r1 + 2], k0, k1))
        idx += np.int32(r0 + offset)
        out, val = mat.cols[k0:k1], mat.vals[k0:k1]
        order = _sort_order(out)
        if order is not None:
            out, idx, val = (np.take(a, order) for a in (out, idx, val))
        # ``out`` is non-decreasing: a run of one row's entries starts
        # at ``heads``, and its i-th entry has rank i.
        heads = np.flatnonzero(np.concatenate(([True],
                                               out[1:] != out[:-1])))
        run = np.diff(heads, append=len(out))
        keys = out[heads]
        dest = np.repeat(np.take(placed, keys) - heads, run)
        dest += np.arange(len(out))
        placed[keys] += run
        dest *= np.take(stride, out)
        dest += np.take(base, out)
        idx_out[dest] = idx
        vals_out[dest] = val


class _PlaneLayout:
    """The transposed pass of :class:`StackedMatrices`: plane groups plus
    ONE residual ``(rows, SparseMatrix)`` (None when nothing is left
    over): a CSR matrix over just the output rows that hold a residual
    entry, and those rows' ids (None when they are every output row).
    Built by :func:`_group_rows` from ``(matrix, offset)`` members.
    ``nbytes`` counts the arrays the layout owns."""

    def __init__(self, members, num_out: int, num_in: int):
        self.num_out, self.num_in = num_out, num_in
        self.groups, (rows, indptr, gather, vals), self.nbytes = \
            _group_rows(members, num_out)
        self.residual = None
        if len(vals):
            self.nbytes += indptr.nbytes
            if len(rows) == self.num_out:
                rows = None
            else:
                self.nbytes += rows.nbytes
            self.residual = (rows, SparseMatrix.from_csr(
                len(indptr) - 1, num_in, indptr, gather, vals))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.uint64)
        if x.shape[0] != self.num_in:
            raise ValueError(f"vector length {x.shape[0]} != num_cols {self.num_in}")
        if self.residual is None:
            out = np.zeros(self.num_out, dtype=np.uint64)
        elif self.residual[0] is None:      # every output row
            out = self.residual[1].matvec(x)
        else:
            out = np.zeros(self.num_out, dtype=np.uint64)
            out[self.residual[0]] = self.residual[1].matvec(x)
        if self.groups:
            tile, acc = _plane_scratch()
            for rows, idx, vals in self.groups:
                out[rows] = _plane_matvec(idx, vals, x, tile, acc)
        return out


class StackedMatrices:
    """The transposed combination sum_i c_i M_i^T x of the A, B, C
    matrices of an R1CS, laid out for ONE fused SpMV pass.

    Spartan's prover needs (r_a A + r_b B + r_c C)^T eq (sumcheck #2);
    each forward product (sumcheck #1) is :meth:`SparseMatrix.matvec` of
    its own matrix.  Transposed, an output row is a column, and the
    columns are grouped by population: columns with L non-zeros become
    ``(L, m)`` index/value planes whose sum is a contiguous add with ONE
    modular reduction per output (:func:`_plane_matvec`) —
    output-stationary like NoCap's SpMV unit, with the population as the
    tile height.  Groups too small to fill a kernel tile
    (:data:`PLANE_TILE`) share one residual :class:`SparseMatrix`, so a
    small circuit still runs one fused segmented-sum pass.  The gather
    index points into a buffer of ``count`` scaled copies of the input
    (:meth:`_scaled_input`), so the combination costs no extra pass.

    The layout is the key's one transposed copy of its entries: every
    stored index is int32 (:data:`INDEX_LIMIT`), so a group costs 12 B
    per non-zero (4 B ``idx`` + 8 B ``vals``) plus 4 B per output row
    where its rows are not one run; the residual costs 12 B per non-zero
    plus 8 B per output row it holds (a CSR offset and the row's id; 4 B
    when it holds every row).  Building reads each member a chunk at a
    time and keeps per-row counts (:func:`_place`); :attr:`nbytes` is what
    the layout owns.

    A member with a row map is laid out by its stored rows
    (:meth:`SparseMatrix.stored`): it gathers its entries from a scaled
    copy of the folded input (:meth:`SparseMatrix.fold`), ``stored_rows``
    words long.
    """

    def __init__(self, mats: List[SparseMatrix]):
        if not mats:
            raise ValueError("need at least one matrix to stack")
        n_rows, n_cols = mats[0].num_rows, mats[0].num_cols
        if any(m.num_rows != n_rows or m.num_cols != n_cols for m in mats):
            raise ValueError("stacked matrices must share a shape")
        if len(mats) * n_rows >= INDEX_LIMIT:
            # The transposed gather indexes ``count`` stacked input copies.
            raise ValueError(f"{len(mats)} x {n_rows} stacked rows exceed "
                             f"int32 indices")
        self.count = len(mats)
        self.num_rows, self.num_cols = n_rows, n_cols
        self.row_maps = tuple(m.row_map for m in mats)
        self.stored_rows = tuple(m.num_stored for m in mats)
        # Member i gathers from its own scaled copy of the (folded)
        # input, at an offset of sum(stored_rows[:i]).
        offsets = np.cumsum((0,) + self.stored_rows[:-1])
        self._transposed = _PlaneLayout(
            [(m.stored(), int(o)) for m, o in zip(mats, offsets)], n_cols,
            sum(self.stored_rows))

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this layout owns."""
        return self._transposed.nbytes

    def scaled_transpose_matvec(self, coeffs, x: np.ndarray) -> np.ndarray:
        """sum_i coeffs[i] * M_i^T x in ONE fused SpMV pass, for any table
        ``x`` (:meth:`scaled_transpose_eq` is the prover's point-taking
        form; both fill the scaled copies through :meth:`_scaled_input`).
        """
        x = np.ascontiguousarray(x, dtype=np.uint64)
        n = self.num_rows
        if x.shape != (n,):
            raise ValueError(f"vector shape {x.shape} != ({n},)")
        return self._transposed.matvec(self._scaled_input(coeffs,
                                                          lambda _slot: x))

    def scaled_transpose_eq(self, coeffs, point) -> np.ndarray:
        """sum_i coeffs[i] * M_i^T eq(point, .) in ONE fused SpMV pass:
        :meth:`scaled_transpose_matvec` of ``eq_table(point)``, with the
        table expanded straight into the buffer of scaled copies, so no
        n-word eq table is held beside them."""
        n = self.num_rows
        if 1 << len(point) != n:
            raise ValueError(f"a {len(point)}-variable point does not index "
                             f"{n} rows")
        return self._transposed.matvec(self._scaled_input(
            coeffs, lambda slot: eq_table(point, out=slot)))

    def _scaled_input(self, coeffs, fill) -> np.ndarray:
        """The transposed pass's input: ``count`` scalar-scaled copies of x
        (of P_i^T x where M_i has a row map), side by side in one buffer,
        so the stacked transpose gathers each matrix's entries from its
        own copy and the combination costs no extra pass over the
        non-zeros.

        ``fill(slot)`` returns x: a vector it holds, or x written into
        ``slot``, the copy of the first member without a row map (n
        words), which is then scaled last, in place.  ``slot`` is None
        when every member has a row map.  The copies only feed the
        gather-multiply, which accepts any uint64 representative, so they
        are not canonicalized.
        """
        if len(coeffs) != self.count:
            raise ValueError("need one coefficient per stacked matrix")
        scaled = np.empty(sum(self.stored_rows), dtype=np.uint64)
        slots = np.split(scaled, np.cumsum(self.stored_rows)[:-1])
        plain = [i for i, m in enumerate(self.row_maps) if m is None]
        host = plain[0] if plain else None
        x = fill(None if host is None else slots[host])
        for i in sorted(range(self.count), key=lambda i: i == host):
            rows, row_map = self.stored_rows[i], self.row_maps[i]
            src = x if row_map is None else _fold(row_map, x, rows)
            fv._scale_tiles(src, int(coeffs[i]), slots[i], canonical=False)
        return scaled
