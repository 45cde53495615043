"""Tests for sparse matrices, R1CS systems, and the circuit builder."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field import vector as fv
from repro.field.goldilocks import MODULUS, inv
from repro.r1cs import Circuit, R1CS, SparseMatrix, matrices, pad_r1cs
from repro.r1cs.matrices import StackedMatrices

felt = st.integers(0, MODULUS - 1)


@st.composite
def coo_matrices(draw):
    """Raw coordinate arrays as the constructor takes them: rows unsorted,
    coordinates repeated, some rows (and columns) left empty."""
    num_rows = draw(st.integers(1, 12))
    num_cols = draw(st.integers(1, 12))
    entries = draw(st.lists(
        st.tuples(st.integers(0, num_rows - 1), st.integers(0, num_cols - 1),
                  felt), max_size=60))
    rows, cols, vals = (list(t) for t in zip(*entries)) if entries \
        else ([], [], [])
    return SparseMatrix(num_rows, num_cols, rows, cols, vals)


def dense_matvec(dense, x):
    return [sum(int(a) * int(b) for a, b in zip(row, x)) % MODULUS
            for row in dense]


class TestSparseMatrix:
    def test_matvec_matches_dense(self, rng):
        n = 32
        entries = [(int(r), int(c), int(v)) for r, c, v in zip(
            rng.integers(0, n, 100), rng.integers(0, n, 100),
            fv.rand_vector(100, rng))]
        m = SparseMatrix.from_entries(n, n, entries)
        x = fv.rand_vector(n, rng)
        dense = m.to_dense()
        want = [(sum(int(dense[i, j]) * int(x[j]) for j in range(n))) % MODULUS
                for i in range(n)]
        assert m.matvec(x).tolist() == want

    def test_duplicate_entries_sum(self):
        m = SparseMatrix.from_entries(2, 2, [(0, 0, 3), (0, 0, 4)])
        x = np.array([1, 0], dtype=np.uint64)
        assert m.matvec(x).tolist() == [7, 0]

    def test_cancelled_entries_dropped(self):
        m = SparseMatrix.from_entries(2, 2, [(0, 0, 3), (0, 0, MODULUS - 3)])
        assert m.nnz == 0

    def test_matvec_exactness_near_modulus(self):
        # Row of many max-value products: exercises the split-accumulate path.
        n = 1000
        entries = [(0, j, MODULUS - 1) for j in range(n)]
        m = SparseMatrix.from_entries(1, n, entries)
        x = np.full(n, MODULUS - 1, dtype=np.uint64)
        want = n * (MODULUS - 1) * (MODULUS - 1) % MODULUS
        assert int(m.matvec(x)[0]) == want

    def test_transpose_matvec(self, rng):
        m = SparseMatrix.from_entries(4, 6, [(0, 1, 2), (3, 5, 7), (2, 0, 1)])
        x = fv.rand_vector(4, rng)
        dense = m.to_dense()
        want = [(sum(int(dense[i, j]) * int(x[i]) for i in range(4))) % MODULUS
                for j in range(6)]
        assert m.transpose_matvec(x).tolist() == want

    @pytest.mark.parametrize("block", [1, 3, 64])
    @given(m=coo_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_blocked_matvec_matches_dense(self, block, m, seed):
        """Every block ends on a segment end, so block=1 puts a boundary
        after each row and block=3 after each third non-empty row."""
        rng = np.random.default_rng(seed)
        x, xt = fv.rand_vector(m.num_cols, rng), fv.rand_vector(m.num_rows,
                                                                rng)
        dense = m.to_dense()
        with mock.patch.object(matrices, "MATVEC_BLOCK_SEGMENTS", block):
            assert m.matvec(x).tolist() == dense_matvec(dense, x)
            assert m.transpose_matvec(xt).tolist() == dense_matvec(dense.T,
                                                                   xt)

    def test_blocked_matvec_equals_one_block(self, rng):
        """A banded matrix spanning several blocks, checked against the
        single-block statements on the same plan."""
        n = 64
        rows = np.repeat(np.arange(n), 3)
        cols = (rows + np.tile([0, 1, 5], n)) % n
        m = SparseMatrix(n, n, rows, cols, fv.rand_vector(3 * n, rng))
        x = fv.rand_vector(n, rng)
        want, want_t = m.matvec(x), m.transpose_matvec(x)
        with mock.patch.object(matrices, "MATVEC_BLOCK_SEGMENTS", 16):
            assert (m.matvec(x) == want).all()
            assert (m.transpose_matvec(x) == want_t).all()

    def test_empty_matrix_plan_is_well_formed(self):
        starts, row_ids = SparseMatrix(4, 4)._group_plan()
        assert len(starts) == 0 and len(row_ids) == 0

    def test_out_of_bounds_entry_rejected(self):
        with pytest.raises(IndexError):
            SparseMatrix.from_entries(2, 2, [(2, 0, 1)])

    @pytest.mark.parametrize("row,col", [(0, -1), (-1, 0), (0, 4), (4, 0)])
    def test_constructor_validates_coordinates(self, row, col):
        """A negative column would wrap silently in ``x[cols]``; an
        over-range one used to surface deep inside ``matvec``."""
        with pytest.raises(IndexError, match=rf"\({row},{col}\) outside 4x4"):
            SparseMatrix(4, 4, [1, row], [2, col], [7, 5])

    @pytest.mark.parametrize("row,error", [
        (1.5, TypeError),                   # used to truncate to row 1
        (True, TypeError),
        (np.array([2**32 + 1]), IndexError),    # would wrap to 1 in int32
        (-1, IndexError),
    ])
    def test_constructor_checks_coordinates_before_narrowing(self, row,
                                                             error):
        with pytest.raises(error):
            SparseMatrix(4, 4, np.atleast_1d(row), [0], [1])
        with pytest.raises(error):
            SparseMatrix.from_arrays(4, 4, list(np.atleast_1d(row)), [0],
                                     [1])

    def test_coordinates_are_stored_int32(self):
        m = SparseMatrix(4, 4, np.array([3], dtype=np.uint64), [2], [1])
        assert m.indptr.dtype == m.rows.dtype == m.cols.dtype == np.int32
        assert m.entries() == [(3, 2, 1)]
        assert SparseMatrix(4, 4, [], [], []).rows.dtype == np.int32

    @pytest.mark.parametrize("shape", [(1 << 31, 4), (4, 1 << 31)])
    def test_dimensions_must_fit_int32(self, shape):
        with pytest.raises(ValueError, match="int32"):
            SparseMatrix(*shape)

    def test_constructor_accepts_the_empty_matrix(self):
        m = SparseMatrix(4, 4)
        assert m.nnz == 0 and m.matvec(np.ones(4, dtype=np.uint64)).tolist() \
            == [0, 0, 0, 0]
        assert SparseMatrix(4, 4, [], [], []).nnz == 0

    def test_shape_mismatch_rejected(self, rng):
        m = SparseMatrix.from_entries(2, 3, [(0, 0, 1)])
        with pytest.raises(ValueError):
            m.matvec(fv.rand_vector(2, rng))

    def test_pad_to(self):
        m = SparseMatrix.from_entries(2, 2, [(1, 1, 5)])
        p = m.pad_to(8, 8)
        assert p.num_rows == 8 and p.nnz == 1
        with pytest.raises(ValueError):
            p.pad_to(4, 4)

    def test_bandwidth(self):
        m = SparseMatrix.from_entries(8, 8, [(0, 0, 1), (3, 5, 1)])
        assert m.bandwidth() == 2
        assert SparseMatrix(2, 2).bandwidth() == 0


class TestCSR:
    """CSR is the one stored form: int32 ``indptr`` (one entry per row
    plus one) instead of a row id per non-zero."""

    @given(m=coo_matrices())
    def test_indptr_is_monotone_int32_and_rows_are_derived(self, m):
        assert m.indptr.dtype == np.int32
        assert m.indptr.shape == (m.num_rows + 1,)
        assert m.indptr[0] == 0 and m.indptr[-1] == m.nnz < matrices.INDEX_LIMIT
        assert (np.diff(m.indptr) >= 0).all()
        assert "rows" not in vars(m)
        assert m.rows.tolist() == sorted(m.rows.tolist())
        assert np.diff(m.indptr).tolist() == np.bincount(
            m.rows, minlength=m.num_rows).tolist()

    @given(entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4),
                                      felt), max_size=30),
           seed=st.integers(0, 2**32 - 1))
    def test_unsorted_and_duplicate_input_is_accepted(self, entries, seed):
        """Any order, repeated coordinates included: the constructor
        sorts by row once (stably) and keeps duplicates, which sum in
        ``to_dense()`` and in every product alike."""
        rng = np.random.default_rng(seed)
        entries = entries + entries[:3]             # duplicates on purpose
        rows, cols, vals = (list(t) for t in zip(*entries)) if entries \
            else ([], [], [])
        m = SparseMatrix(6, 5, rows, cols, vals)
        dense = np.zeros((6, 5), dtype=object)
        for r, c, v in entries:
            dense[r, c] = (dense[r, c] + v) % MODULUS
        assert (m.to_dense() == dense).all()
        assert m.nnz == len(entries)
        for r in range(6):      # each row keeps its entries' given order
            assert m.cols[m.indptr[r]:m.indptr[r + 1]].tolist() == [
                c for rr, c, _v in entries if rr == r]
        x = fv.rand_vector(5, rng)
        assert m.matvec(x).tolist() == dense_matvec(dense, x)

    def test_from_csr_adopts_and_checks(self):
        cols = np.array([1, 0, 2], dtype=np.int32)
        vals = np.array([5, 6, 7], dtype=np.uint64)
        m = SparseMatrix.from_csr(3, 3, np.array([0, 1, 1, 3], np.int32),
                                  cols, vals)
        assert m.cols is cols and m.vals is vals
        assert m.entries() == [(0, 1, 5), (2, 0, 6), (2, 2, 7)]
        for bad in ([0, 2, 1, 3], [1, 1, 1, 3], [0, 1, 1, 2], [0, 1, 3]):
            with pytest.raises(ValueError, match="indptr"):
                SparseMatrix.from_csr(3, 3, bad, cols, vals)
        with pytest.raises(IndexError):
            SparseMatrix.from_csr(3, 2, [0, 1, 1, 3], cols, vals)

    def test_pad_to_shares_the_entries(self):
        m = SparseMatrix.from_entries(2, 2, [(1, 1, 5), (0, 1, 2)])
        p = m.pad_to(4, 8)
        assert p.indptr.tolist() == [0, 1, 2, 2, 2]
        assert p.cols is m.cols and p.vals is m.vals


class TestR1CSSystem:
    def _tiny(self):
        c = Circuit()
        out = c.public(6)
        a = c.witness(2)
        b = c.witness(3)
        c.assert_equal(c.mul(a, b), out)
        return c.compile()

    def test_satisfied(self):
        r1cs, pub, wit = self._tiny()
        assert r1cs.is_satisfied(r1cs.assemble_z(pub, wit))

    def test_wrong_witness_rejected(self):
        r1cs, pub, wit = self._tiny()
        bad = wit.copy()
        bad[0] = 5
        assert not r1cs.is_satisfied(r1cs.assemble_z(pub, bad))

    def test_assemble_z_layout(self):
        r1cs, pub, wit = self._tiny()
        z = r1cs.assemble_z(pub, wit)
        half = r1cs.shape.half
        assert int(z[0]) == 1
        assert z[len(pub):half].tolist() == [0] * (half - len(pub))
        assert z[half:half + len(wit)].tolist() == wit.tolist()

    def test_assemble_z_validates(self):
        r1cs, pub, wit = self._tiny()
        with pytest.raises(ValueError):
            r1cs.assemble_z(pub[:-1], wit)
        bad_pub = pub.copy()
        bad_pub[0] = 2
        with pytest.raises(ValueError):
            r1cs.assemble_z(bad_pub, wit)

    def test_products_consistency(self, rng):
        r1cs, pub, wit = self._tiny()
        z = r1cs.assemble_z(pub, wit)
        az, bz, cz = r1cs.products(z)
        assert (fv.mul(az, bz) == cz).all()

    def test_padding_is_power_of_two_square(self):
        r1cs, _, _ = self._tiny()
        n = r1cs.shape.num_constraints
        assert n & (n - 1) == 0
        assert r1cs.a.num_rows == r1cs.a.num_cols == n

    def test_empty_c_matrix(self, rng):
        """Constraints of the form a * b = 0 leave C with no entries; the
        product and the transposed layout (built eagerly) must take an
        empty member."""
        a = SparseMatrix.from_entries(4, 4, [(0, 0, 1), (1, 2, 5)])
        b = SparseMatrix.from_entries(4, 4, [(0, 3, 2), (1, 1, 7)])
        c = SparseMatrix(4, 4)
        stacked = StackedMatrices([a, b, c])
        z = np.array([1, 0, 9, 0], dtype=np.uint64)
        assert c.matvec(z).tolist() == [0, 0, 0, 0]
        assert stacked.scaled_transpose_matvec((0, 0, 1), z).tolist() \
            == [0, 0, 0, 0]
        r1cs = R1CS(a, b, c, 1, 1)
        az, bz, cz = r1cs.products(z)
        assert az.tolist() == [1, 45, 0, 0] and bz.tolist() == [0, 0, 0, 0]
        assert cz.tolist() == [0, 0, 0, 0] and r1cs.is_satisfied(z)
        x = fv.rand_vector(4, rng)
        want = fv.add(fv.mul_scalar(a.transpose_matvec(x), 3),
                      fv.mul_scalar(b.transpose_matvec(x), 5))
        got = r1cs.combined_transpose_matvec((3, 5, 11), x)
        assert got.tolist() == want.tolist()
        # All three empty: every plan is the empty plan.
        empty = R1CS(c, c, c, 1, 1)
        assert [p.tolist() for p in empty.products(z)] == [[0] * 4] * 3
        assert empty.combined_transpose_matvec((1, 2, 3), x).tolist() == [0] * 4

    def test_non_square_rejected(self):
        a = SparseMatrix.from_entries(4, 8, [])
        with pytest.raises(ValueError):
            R1CS(a, a, a, 1, 1)


@st.composite
def stacked_systems(draw):
    """Three square COO matrices mixing what the plane layout has to sort
    out: whole populations of equal-length rows (plane groups, L = 1
    included), a few long rows (longer than a patched plane cap), stray
    entries (residual), duplicate coordinates, empty rows and columns —
    and fixed-width row-sorted members over a run of rows, the synthetic
    shape (over every row, it takes the plane kernel of
    ``SparseMatrix.matvec``)."""
    n = draw(st.sampled_from([4, 8, 16]))
    mats = []
    for _ in range(3):
        if draw(st.booleans()):
            length = draw(st.integers(1, 6))
            r0 = draw(st.integers(0, n - 1))
            r1 = draw(st.integers(r0 + 1, n))
            count = (r1 - r0) * length
            mats.append(SparseMatrix(
                n, n, np.repeat(np.arange(r0, r1), length),
                draw(st.lists(st.integers(0, n - 1), min_size=count,
                              max_size=count)),
                draw(st.lists(felt, min_size=count, max_size=count))))
            continue
        rows, cols, vals = [], [], []
        for length in draw(st.lists(st.integers(0, 6), max_size=2)):
            for r in draw(st.lists(st.integers(0, n - 1), unique=True,
                                   max_size=n)):
                rows += [r] * length
                cols += draw(st.lists(st.integers(0, n - 1), min_size=length,
                                      max_size=length))
                vals += draw(st.lists(felt, min_size=length, max_size=length))
        for r, c, v in draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), felt),
                max_size=12)):
            rows.append(r), cols.append(c), vals.append(v)
        perm = draw(st.permutations(range(len(rows)))) \
            if draw(st.booleans()) else sorted(range(len(rows)),
                                               key=rows.__getitem__)
        mats.append(SparseMatrix(n, n, [rows[i] for i in perm],
                                 [cols[i] for i in perm],
                                 [vals[i] for i in perm]))
    return mats


def _planes_of(run, x):
    """``(idx, vals)`` of every ``_plane_matvec`` call made by
    ``run(x)``."""
    seen = []
    kernel = matrices._plane_matvec

    def spy(idx, vals, *args):
        seen.append((idx, vals))
        return kernel(idx, vals, *args)

    with mock.patch.object(matrices, "_plane_matvec", spy):
        run(x)
    return seen


def patched_planes(tile, cap, reduce_rows):
    """Kernel constants small enough that multi-tile groups, chunk
    folding and multi-chunk reductions occur on test-sized matrices."""
    return mock.patch.multiple(matrices, PLANE_TILE=tile, PLANE_CAP=cap,
                               REDUCE_ROWS=reduce_rows)


class TestSortOrder:
    @given(st.lists(st.integers(0, 40), max_size=80),
           st.sampled_from([0, 1 << 40, (1 << 62) - 41]))
    def test_packed_key_sort_is_the_stable_argsort(self, keys, base):
        """Unique ``(key << b) | index`` words sorted unstably give the
        stable permutation; keys too wide to pack (the last ``base``)
        take ``np.argsort`` itself."""
        keys = np.asarray(keys, dtype=np.int64) + np.int64(base)
        order = matrices._sort_order(keys)
        if order is None:
            assert (keys[:-1] <= keys[1:]).all()
        else:
            assert order.dtype == np.int64
            assert order.tolist() == np.argsort(keys, kind="stable").tolist()


class TestPlaneLayout:
    """The plane kernel under ``SparseMatrix.matvec`` (fixed-width
    matrices) and the population-grouped transposed layout under
    ``combined_transpose_matvec`` against ``to_dense()`` arithmetic."""

    @pytest.mark.parametrize("tile,cap,reduce_rows", [
        (1, 2, 1),          # everything planar, every row its own tile
        (4, 3, 2),          # multi-tile groups, rows past the cap
        (8, 512, 3),        # a small residual beside the groups
        (1 << 15, 512, 1 << 14),    # the shipped constants: all residual
    ])
    @given(mats=stacked_systems(), seed=st.integers(0, 2**32 - 1))
    def test_both_directions_match_dense(self, tile, cap, reduce_rows, mats,
                                         seed):
        rng = np.random.default_rng(seed)
        n = mats[0].num_rows
        # Non-canonical on purpose: any uint64 is a valid operand.
        x = rng.integers(0, 1 << 63, size=n, dtype=np.uint64) << np.uint64(1)
        coeffs = [int(c) for c in fv.rand_vector(3, rng)]
        dense = [m.to_dense() for m in mats]
        with patched_planes(tile, cap, reduce_rows):
            stacked = StackedMatrices(mats)
            got = [m.matvec(x) for m in mats]
            got_t = stacked.scaled_transpose_matvec(coeffs, x)
        for d, g in zip(dense, got):
            assert g.tolist() == dense_matvec(d, x)
        want_t = [sum(c * w for c, w in zip(coeffs, col)) % MODULUS
                  for col in zip(*(dense_matvec(d.T, x) for d in dense))]
        assert got_t.tolist() == want_t

    @pytest.mark.parametrize("tile,expect_planes", [(1, True),
                                                    (1 << 15, False)])
    def test_split_depends_only_on_the_matrix(self, tile, expect_planes):
        """A population that fills a tile becomes planes; one that does
        not stays in the one residual SparseMatrix.  A transposed plane
        is a C-contiguous copy; forward, the fixed-width matrix itself
        takes the plane kernel or the segmented sum."""
        n = 8
        rows = np.repeat(np.arange(n), 2)
        a = SparseMatrix(n, n, rows, (rows * 3 + np.tile([0, 1], n)) % n,
                         np.arange(1, 2 * n + 1))
        with patched_planes(tile, 512, 4):
            stacked = StackedMatrices([a, a, SparseMatrix(n, n)])
            assert a._plane_width() == (2 if expect_planes else 0)
        side = stacked._transposed
        assert bool(side.groups) is expect_planes
        assert (side.residual is None) is expect_planes
        for _rows, idx, vals in side.groups:
            assert idx.dtype == np.int32 and idx.shape == vals.shape
            assert idx.flags["C_CONTIGUOUS"] and vals.flags["C_CONTIGUOUS"]
        if side.residual is not None:
            # CSR over the rows that hold a residual entry: its gather
            # plan is a view of ``indptr``, nothing stored.
            _rows, residual = side.residual
            starts, row_ids = residual._group_plan()
            assert row_ids is None and starts.base is residual.indptr

    @pytest.mark.parametrize("cap", [3, 512])
    @pytest.mark.parametrize("below", [0, 1])
    @given(data=st.data())
    def test_fixed_width_matvec_matches_dense(self, cap, below, data):
        """``SparseMatrix.matvec`` takes the plane kernel exactly when
        every stored row holds L entries, 1 <= L <= PLANE_CAP, and L *
        rows reaches PLANE_TILE (patched one above L * rows when
        ``below``), and equals ``to_dense()`` arithmetic on a
        non-canonical x either way: L = 0, 1, 2, the cap and one past
        it, with and without a row map over the stored rows."""
        stored = data.draw(st.integers(1, 12))
        width = data.draw(st.sampled_from([0, 1, 2, cap, cap + 1]))
        num_cols = data.draw(st.integers(1, 8))
        count = stored * width
        cols = data.draw(st.lists(st.integers(0, num_cols - 1),
                                  min_size=count, max_size=count))
        vals = data.draw(st.lists(felt, min_size=count, max_size=count))
        row_map = None
        if data.draw(st.booleans()):
            row_map = data.draw(st.lists(st.integers(0, stored - 1),
                                         min_size=1, max_size=16))
        m = SparseMatrix.from_csr(
            stored if row_map is None else len(row_map), num_cols,
            np.arange(stored + 1) * width, np.array(cols, dtype=np.int32),
            np.array(vals, dtype=np.uint64), row_map)
        x = np.array(data.draw(st.lists(st.integers(0, 2**64 - 1),
                                        min_size=num_cols,
                                        max_size=num_cols)),
                     dtype=np.uint64)
        with patched_planes(max(1, count + below), cap, 4):
            planes = _planes_of(m.matvec, x)
            got = m.matvec(x)
        takes_planes = 1 <= width <= cap and not below
        assert [idx.shape for idx, _vals in planes] \
            == ([(width, stored)] if takes_planes else [])
        assert got.tolist() == dense_matvec(m.to_dense(), x)
        assert m._groups is None

    def test_synthetic_layout_holds_no_forward_copy(self):
        """Each synthetic product (L = 3, 3, 1) runs the plane kernel on
        strided views of its matrix's ``cols`` / ``vals`` and caches no
        gather plan: the layout owns only the transposed side."""
        from repro.workloads import synthetic_r1cs

        with patched_planes(64, 512, 16):
            r1cs, public, witness = synthetic_r1cs(8, band=4, seed=11)
            stacked = r1cs._stacked()
            planes = _planes_of(r1cs.products, r1cs.assemble_z(public,
                                                               witness))
        members = (r1cs.a, r1cs.b, r1cs.c)
        assert [idx.shape for idx, _vals in planes] \
            == [(3, 256), (3, 256), (1, 256)]
        for (idx, vals), m in zip(planes, members):
            assert np.shares_memory(idx, m.cols)
            assert np.shares_memory(vals, m.vals)
            assert m._groups is None
        assert "_forward" not in vars(stacked)
        assert stacked.nbytes == stacked._transposed.nbytes > 0

    def test_rows_that_are_not_one_run_take_the_segmented_sum(self):
        """A matrix with an empty stored row is not fixed-width: its
        product is the segmented sum, whose plan caches the non-empty
        rows.  A member given in reverse row order is sorted by its
        constructor, so its fixed-width rows are plane views."""
        n = 8
        rows = np.repeat([0, 1, 2, 4, 5, 6, 7], 2)         # row 3 is empty
        gapped = SparseMatrix(n, n, rows, (rows + np.tile([0, 1], 7)) % n,
                              np.arange(1, 15))
        x = np.arange(n, dtype=np.uint64)
        with patched_planes(1, 512, 4):
            assert _planes_of(gapped.matvec, x) == []
            got = gapped.matvec(x)
        assert got.tolist() == dense_matvec(gapped.to_dense(), x)
        assert gapped._groups[1].tolist() == [0, 1, 2, 4, 5, 6, 7]
        rows = np.repeat(np.arange(n), 2)[::-1]             # one run, reversed
        unsorted = SparseMatrix(n, n, rows, (rows + np.tile([0, 1], n)) % n,
                                np.arange(1, 2 * n + 1))
        assert unsorted.rows.tolist() == sorted(rows.tolist())
        with patched_planes(1, 512, 4):
            [(idx, vals)] = _planes_of(unsorted.matvec, x)
            got = unsorted.matvec(x)
        assert np.shares_memory(idx, unsorted.cols)
        assert np.shares_memory(vals, unsorted.vals)
        assert got.tolist() == dense_matvec(unsorted.to_dense(), x)
        assert unsorted._groups is None

    def test_nothing_but_planes_and_residual_is_retained(self):
        """No stacked COO copy and no sort permutation outlive the build;
        besides the two directions the layout keeps only each member's
        row map (the member's own array) and stored-row count."""
        with patched_planes(1, 512, 4):
            a = SparseMatrix(4, 4, [3, 0, 1, 2], [0, 1, 2, 3], [1, 2, 3, 4])
            mapped = SparseMatrix.from_csr(4, 4, a.indptr[:3], a.cols[:2],
                                           a.vals[:2], [1, 0, 1, 1])
            stacked = StackedMatrices([a, mapped, a])
        assert set(vars(stacked._transposed)) == {
            "num_out", "num_in", "groups", "residual", "nbytes"}
        assert set(vars(stacked)) == {"count", "num_rows", "num_cols",
                                      "row_maps", "stored_rows",
                                      "_transposed"}
        assert stacked.row_maps == (None, mapped.row_map, None)
        assert stacked.stored_rows == (4, 2, 4)

    def test_pickle_round_trip_rebuilds_the_layout(self, rng):
        import pickle
        from repro.workloads import synthetic_r1cs

        with patched_planes(64, 512, 16):
            r1cs, public, witness = synthetic_r1cs(7, band=4, seed=11)
            z = r1cs.assemble_z(public, witness)
            x = fv.rand_vector(len(z), rng)
            want = r1cs.products(z), r1cs.combined_transpose_matvec((3, 5, 7),
                                                                    x)
            assert r1cs._stacked()._transposed.groups   # planes in play
            assert r1cs.a._plane_width() == 3
            clone = pickle.loads(pickle.dumps(r1cs))
            assert clone._stacked_cache is None
            got = clone.products(z), clone.combined_transpose_matvec((3, 5, 7),
                                                                     x)
            assert clone._stacked()._transposed.groups
        for w, g in zip(want[0], got[0]):
            assert np.array_equal(w, g)
        assert np.array_equal(want[1], got[1])

    def test_stacked_rows_must_fit_int32(self):
        """The transposed gather indexes ``count`` stacked copies of the
        input: 3 x 2^30 rows is refused before any per-row allocation
        (an 8 GB ``bincount``)."""
        import time

        empty = SparseMatrix(1 << 30, 1 << 30)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="int32"):
            StackedMatrices([empty, empty, empty])
        assert time.perf_counter() - t0 < 0.5

    def test_wrong_length_vector_rejected(self):
        a = SparseMatrix(4, 4, [0], [0], [1])
        stacked = StackedMatrices([a, a, a])
        with pytest.raises(ValueError):
            R1CS(a, a, a, 1, 1).products(np.ones(5, dtype=np.uint64))
        with pytest.raises(ValueError):
            stacked.scaled_transpose_matvec((1, 2, 3),
                                            np.ones(3, dtype=np.uint64))


def _traced(run):
    """(result, bytes still allocated, peak bytes) of ``run()`` under
    tracemalloc, counted from zero."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = run()
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, resident, peak


class TestResidentSetOfAKey:
    """Memory pins on ``synthetic_r1cs(16)``: one copy of each matrix, in
    CSR — 12 B per non-zero plus 4 B per row.  The layout build walks
    each member a chunk at a time, and the transposed SpMV writes its
    scaled inputs into one buffer instead of concatenating copies."""

    @pytest.fixture(scope="class")
    def r1cs(self):
        from repro.workloads import synthetic_r1cs

        return synthetic_r1cs(16)[0]

    def test_build_peaks_at_owned_bytes_plus_one_sort_key(self, r1cs):
        """Each member holds 12 B per non-zero plus 4 B per row; the
        layout build peaks <= owned layout bytes + 8 B per non-zero of
        the key + 4 MB (the stacked-coordinate build peaked 12 B per
        non-zero above that), and ``nbytes`` is what it leaves
        allocated."""
        for m in (r1cs.a, r1cs.b, r1cs.c):
            assert m.cols.nbytes + m.vals.nbytes == 12 * m.nnz
            assert m.indptr.nbytes == 4 * (m.num_rows + 1)
        stacked, resident, peak = _traced(
            lambda: StackedMatrices([r1cs.a, r1cs.b, r1cs.c]))
        assert stacked.nbytes == stacked._transposed.nbytes
        assert abs(resident - stacked.nbytes) < 64 << 10
        assert peak <= stacked.nbytes + 8 * r1cs.nnz + (4 << 20), \
            (peak - stacked.nbytes) / r1cs.nnz

    def test_build_working_set_does_not_grow_with_row_length(self):
        """The build reads each member ``_BUILD_ELEMENTS`` entries at a
        time, so its traced peak above what the layout keeps is the same
        at 3 and 12 non-zeros per row (a member-wide sort order and row
        ids made it 4.9 and 11.6 MiB)."""
        from repro.workloads import synthetic_r1cs

        above = []
        for nnz_per_row in (3, 12):
            r1cs = synthetic_r1cs(16, nnz_per_row=nnz_per_row)[0]
            stacked, _resident, peak = _traced(
                lambda: StackedMatrices([r1cs.a, r1cs.b, r1cs.c]))
            above.append(peak - stacked.nbytes)
        assert abs(above[1] - above[0]) <= 1 << 20, above

    def test_scaled_transpose_makes_one_buffer_of_copies(self, r1cs, rng):
        """The scaled copies are one ``count * n`` buffer when the SpMV
        starts (a concatenation would hold two), and the whole call peaks
        at <= (count + 1) * n * 8 B + 4 MB."""
        import tracemalloc

        stacked = r1cs._stacked()
        n = r1cs.shape.num_constraints
        x = fv.rand_vector(n, rng)
        want = stacked.scaled_transpose_matvec((3, 5, 7), x)  # warm scratch
        spmv = stacked._transposed.matvec
        at_spmv = []

        def recorded(scaled):
            at_spmv.append(tracemalloc.get_traced_memory()[1])
            return spmv(scaled)

        with mock.patch.object(stacked._transposed, "matvec", recorded):
            got, _resident, peak = _traced(
                lambda: stacked.scaled_transpose_matvec((3, 5, 7), x))
        assert np.array_equal(got, want)
        copies = stacked.count * n * 8
        assert at_spmv[0] <= copies + n * 8, at_spmv[0] / copies
        assert peak <= copies + n * 8 + (4 << 20), peak / copies


class TestCompileDigests:
    """``Circuit.compile`` builds its matrices from arrays, not per-term
    appends, and stores repeated rows once: every registry circuit still
    compiles to the same instance.  sha256 over ``rows``, ``cols``,
    ``vals`` of each of A, B, C in plain CSR (``expanded()``: a row map's
    repeated rows in full; each widened to ``<i8``), then public and
    witness, recorded when the build appended per term and
    ``from_arrays`` reduced value by value."""

    DIGESTS = {
        "aes": "98966beacc50a3bbb4c7fa65ff0f505f1e9c366602780fc28d4cdaefadc6bc49",
        "auction": "aa19ffb9096842832addb16a64b52d4ce9c56c2976bc22995eeb5ae9fe43c21f",
        "litmus": "a78ed7cf8aacb08ed83b0ab4cfd1d0f6436038a559e8c87786283ded36b81079",
        "rsa": "6620b46881cbd77ab5f580fd214c5e2b771c12af2ac413f5232bfee1336dd0c1",
        "sha": "5e50ec5a254be11a6bf94c4a81c3fe2fc55e8f449eb543245b832ceb4f4fe302",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_registry_circuit_is_unchanged(self, name):
        import hashlib

        from repro.workloads.registry import build_workload

        r1cs, public, witness = build_workload(name)[1].compile()
        h = hashlib.sha256()
        for m in (r1cs.a.expanded(), r1cs.b.expanded(), r1cs.c.expanded()):
            for arr in (m.rows, m.cols, m.vals):
                h.update(np.asarray(arr, dtype="<i8").tobytes())
        h.update(public.tobytes())
        h.update(witness.tobytes())
        assert h.hexdigest() == self.DIGESTS[name]

    def test_from_arrays_reduces_any_integer(self):
        """Negative and past-64-bit values take the exact path; uint64
        values at or above p are reduced in the vectorized one."""
        m = SparseMatrix.from_arrays(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                                     [-1, 2**70, MODULUS + 3, 2**64 - 1])
        assert m.entries() == [(0, 0, MODULUS - 1), (0, 1, 2**70 % MODULUS),
                               (1, 0, 3), (1, 1, (2**64 - 1) % MODULUS)]
        arrays = SparseMatrix.from_arrays(
            2, 2, np.array([1, 0]), np.array([1, 1]),
            np.array([MODULUS + 5, 7], dtype=np.uint64))
        assert arrays.entries() == [(0, 1, 7), (1, 1, 5)]


class TestBuilderGadgets:
    def test_boolean_truth_tables(self):
        for av in (0, 1):
            for bv in (0, 1):
                c = Circuit()
                a, b = c.witness(av), c.witness(bv)
                c.assert_bool(a)
                c.assert_bool(b)
                assert c.xor(a, b).value == av ^ bv
                assert c.and_(a, b).value == av & bv
                assert c.or_(a, b).value == av | bv
                assert c.not_(a).value == 1 - av
                r1cs, pub, wit = c.compile()
                assert r1cs.is_satisfied(r1cs.assemble_z(pub, wit))

    def test_select(self):
        c = Circuit()
        cond = c.witness(1)
        assert c.select(cond, c.constant(10), c.constant(20)).value == 10
        cond0 = c.witness(0)
        assert c.select(cond0, c.constant(10), c.constant(20)).value == 20

    @pytest.mark.parametrize("value,width", [(0, 1), (1, 1), (5, 3), (255, 8),
                                             (256, 9), (2**32 - 1, 32)])
    def test_to_from_bits(self, value, width):
        c = Circuit()
        x = c.witness(value)
        bits = c.to_bits(x, width)
        assert [b.value for b in bits] == [(value >> i) & 1 for i in range(width)]
        assert c.from_bits(bits).value == value
        r1cs, pub, wit = c.compile()
        assert r1cs.is_satisfied(r1cs.assemble_z(pub, wit))

    def test_to_bits_overflow_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.to_bits(c.witness(8), 3)

    def test_is_zero(self):
        c = Circuit()
        assert c.is_zero(c.witness(0)).value == 1
        assert c.is_zero(c.witness(7)).value == 0
        r1cs, pub, wit = c.compile()
        assert r1cs.is_satisfied(r1cs.assemble_z(pub, wit))

    def test_assert_nonzero(self):
        c = Circuit()
        invw = c.assert_nonzero(c.witness(4))
        assert invw.value == inv(4)
        with pytest.raises(ValueError):
            c.assert_nonzero(c.witness(0))

    @pytest.mark.parametrize("a,b,width,expect", [
        (3, 7, 8, 1), (7, 3, 8, 0), (5, 5, 8, 0), (0, 1, 4, 1),
        (255, 0, 8, 0), (0, 255, 8, 1)])
    def test_less_than(self, a, b, width, expect):
        c = Circuit()
        got = c.less_than(c.witness(a), c.witness(b), width)
        assert got.value == expect
        r1cs, pub, wit = c.compile()
        assert r1cs.is_satisfied(r1cs.assemble_z(pub, wit))

    def test_lookup(self):
        table = [(7 * i + 3) % 256 for i in range(256)]
        c = Circuit()
        y = c.lookup(c.witness(99), table)
        assert y.value == table[99]
        r1cs, pub, wit = c.compile()
        assert r1cs.is_satisfied(r1cs.assemble_z(pub, wit))

    def test_lookup_bad_table(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.lookup(c.witness(0), [1, 2, 3], width=8)

    def test_linear_ops_free(self):
        c = Circuit()
        x = c.witness(3)
        before = c.num_constraints
        _ = x + 5 - x * 2 + (7 * x)
        assert c.num_constraints == before  # linear combos cost nothing

    def test_mul_by_constant_free(self):
        c = Circuit()
        x = c.witness(3)
        before = c.num_constraints
        y = x * c.constant(4)
        assert y.value == 12
        assert c.num_constraints == before

    def test_public_after_witness_rejected(self):
        c = Circuit()
        c.witness(1)
        with pytest.raises(RuntimeError):
            c.public(2)

    def test_enforce_manual(self):
        c = Circuit()
        x = c.witness(4)
        c.enforce(x, x, 16)
        r1cs, pub, wit = c.compile()
        assert r1cs.is_satisfied(r1cs.assemble_z(pub, wit))

    def test_unsatisfied_constraint_detected(self):
        c = Circuit()
        x = c.witness(4)
        c.enforce(x, x, 17)  # wrong on purpose
        r1cs, pub, wit = c.compile()
        assert not r1cs.is_satisfied(r1cs.assemble_z(pub, wit))

    @given(felt, felt)
    def test_mul_gadget_matches_field(self, a, b):
        c = Circuit()
        got = c.mul(c.witness(a), c.witness(b)).value
        assert got == a * b % MODULUS

    def test_integral_scalars_scale_for_free(self):
        """Any integral scalar scales a wire, numpy integers included:
        ``x * np.int64(2)`` used to die reading ``.lc`` off the scalar,
        while ``x + np.int64(2)`` and ``np.int64(2) * x`` worked."""
        c = Circuit()
        x = c.witness(3)
        before = c.num_constraints
        for k in (np.int64(2), np.uint8(2), np.int32(2)):
            assert (x * k).value == 6
            assert (k * x).value == 6
            assert (x + k).value == 5
        assert (x * np.int64(-1)).value == MODULUS - 3
        assert c.num_constraints == before


# ---------------------------------------------------------------------------
# Distinct-row form: repeated rows stored once behind a row map
# ---------------------------------------------------------------------------

def _planted(draw, num_rows, num_cols):
    """A matrix in distinct-row form with planted repeats, and the same
    matrix built as plain CSR from its entries row by row.  Stored rows
    may be empty and may repeat columns; the row map either repeats one
    stored row everywhere or draws each row's stored row."""
    stored = draw(st.lists(
        st.lists(st.tuples(st.integers(0, num_cols - 1), felt), max_size=5),
        min_size=1, max_size=6))
    pick = st.integers(0, len(stored) - 1)
    if draw(st.booleans()):
        row_map = [draw(pick)] * num_rows
    else:
        row_map = draw(st.lists(pick, min_size=num_rows, max_size=num_rows))
    indptr = np.cumsum([0] + [len(row) for row in stored])
    mapped = SparseMatrix.from_csr(
        num_rows, num_cols, indptr,
        np.array([c for row in stored for c, _v in row], dtype=np.int64),
        np.array([v for row in stored for _c, v in row], dtype=np.uint64),
        row_map)
    entries = [(r, c, v) for r in range(num_rows)
               for c, v in stored[row_map[r]]]
    rows, cols, vals = (list(t) for t in zip(*entries)) if entries \
        else ([], [], [])
    return mapped, SparseMatrix(num_rows, num_cols, rows, cols, vals)


@st.composite
def planted_matrices(draw):
    return _planted(draw, draw(st.integers(1, 12)), draw(st.integers(1, 10)))


@st.composite
def partly_mapped_systems(draw):
    """Three n x n members, each either in distinct-row form or plain
    (:func:`stacked_systems`' mix), with their plain CSR twins."""
    n = draw(st.sampled_from([4, 8]))
    mats, twins = [], []
    for _ in range(3):
        if draw(st.booleans()):
            mapped, twin = _planted(draw, n, n)
        else:
            rows, cols, vals = [], [], []
            for r, c, v in draw(st.lists(st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), felt),
                    max_size=20)):
                rows.append(r), cols.append(c), vals.append(v)
            mapped = twin = SparseMatrix(n, n, rows, cols, vals)
        mats.append(mapped)
        twins.append(twin)
    return mats, twins


def _mle_of_dense(dense, rx, ry):
    """The matrix MLE at (rx, ry) from the dense matrix, by definition."""
    from repro.multilinear import mle_eval

    return mle_eval(np.array(dense, dtype=np.uint64).reshape(-1), rx + ry)


def _pow2(k):
    return 1 << max(0, k - 1).bit_length()


class TestRowMap:
    """A matrix in distinct-row form (``row_map``) against ``to_dense()``
    arithmetic and against the plain CSR matrix with the same entries."""

    @given(pair=planted_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_products_match_dense_and_plain(self, pair, seed):
        mapped, plain = pair
        rng = np.random.default_rng(seed)
        x = fv.rand_vector(mapped.num_cols, rng)
        # Non-canonical on purpose: the fold takes any uint64.
        y = rng.integers(0, 1 << 63, size=mapped.num_rows,
                         dtype=np.uint64) << np.uint64(1)
        dense = plain.to_dense()
        assert (mapped.to_dense() == dense).all()
        assert mapped.nnz == plain.nnz
        assert mapped.entries() == plain.entries()
        assert mapped.rows.tolist() == plain.rows.tolist()
        assert mapped.bandwidth() == plain.bandwidth()
        assert mapped.matvec(x).tolist() == plain.matvec(x).tolist() \
            == dense_matvec(dense, x)
        assert mapped.transpose_matvec(y).tolist() \
            == plain.transpose_matvec(y).tolist() == dense_matvec(dense.T, y)
        expanded = mapped.expanded()
        assert expanded.row_map is None and expanded.nnz == plain.nnz
        assert (expanded.to_dense() == dense).all()

    @given(pair=planted_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_padded_mle_eval_matches_dense_and_plain(self, pair, seed):
        from repro.spartan.matrixeval import matrix_mle_eval

        mapped, plain = pair
        rows, cols = _pow2(mapped.num_rows), _pow2(mapped.num_cols)
        padded, plain = mapped.pad_to(rows, cols), plain.pad_to(rows, cols)
        assert padded.row_map is not None and padded.nnz == plain.nnz
        assert padded.cols is mapped.cols and padded.vals is mapped.vals
        assert (padded.to_dense() == plain.to_dense()).all()
        rng = np.random.default_rng(seed)
        rx = [int(v) for v in fv.rand_vector(rows.bit_length() - 1, rng)]
        ry = [int(v) for v in fv.rand_vector(cols.bit_length() - 1, rng)]
        want = _mle_of_dense(plain.to_dense(), rx, ry)
        assert matrix_mle_eval(padded, rx, ry) \
            == matrix_mle_eval(plain, rx, ry) == want

    @given(pair=planted_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_pickle_round_trip_keeps_the_map(self, pair, seed):
        import pickle

        mapped, _plain = pair
        x = fv.rand_vector(mapped.num_cols, np.random.default_rng(seed))
        want = mapped.matvec(x)
        clone = pickle.loads(pickle.dumps(mapped))
        assert clone.row_map.dtype == np.int32
        assert clone.row_map.tolist() == mapped.row_map.tolist()
        assert clone.indptr.tolist() == mapped.indptr.tolist()
        assert clone._groups is None
        assert clone.matvec(x).tolist() == want.tolist()

    @pytest.mark.parametrize("tile,cap,reduce_rows", [
        (1, 2, 1), (4, 3, 2), (1 << 15, 512, 1 << 14)])
    @given(system=partly_mapped_systems(), seed=st.integers(0, 2**32 - 1))
    def test_stacked_with_some_members_mapped(self, tile, cap, reduce_rows,
                                              system, seed):
        from repro.spartan.matrixeval import combined_matrix_eval

        mats, twins = system
        n = mats[0].num_rows
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 1 << 63, size=n, dtype=np.uint64) << np.uint64(1)
        coeffs = [int(c) for c in fv.rand_vector(3, rng)]
        with patched_planes(tile, cap, reduce_rows):
            stacked = StackedMatrices(mats)
            plain = StackedMatrices(twins)
            got = [m.matvec(x) for m in mats]
            want = [t.matvec(x) for t in twins]
            got_t = stacked.scaled_transpose_matvec(coeffs, x)
            want_t = plain.scaled_transpose_matvec(coeffs, x)
        assert stacked.row_maps == tuple(m.row_map for m in mats)
        dense = [t.to_dense() for t in twins]
        for d, g, w in zip(dense, got, want):
            assert g.tolist() == w.tolist() == dense_matvec(d, x)
        assert got_t.tolist() == want_t.tolist() == [
            sum(c * w for c, w in zip(coeffs, col)) % MODULUS
            for col in zip(*(dense_matvec(d.T, x) for d in dense))]
        rx = [int(v) for v in fv.rand_vector(n.bit_length() - 1, rng)]
        ry = [int(v) for v in fv.rand_vector(n.bit_length() - 1, rng)]
        assert combined_matrix_eval(*mats, *coeffs, rx, ry) \
            == combined_matrix_eval(*twins, *coeffs, rx, ry) \
            == sum(c * _mle_of_dense(d, rx, ry)
                   for c, d in zip(coeffs, dense)) % MODULUS

    @given(system=partly_mapped_systems(), seed=st.integers(0, 2**32 - 1))
    def test_pad_r1cs_carries_the_map(self, system, seed):
        """pad_r1cs relocates the witness columns of the stored rows and
        pads the map: the system equals the one padded from the plain
        twins, product for product."""
        mats, twins = system
        num_public = mats[0].num_cols // 2
        num_witness = mats[0].num_cols - num_public
        r1cs = pad_r1cs(*mats, num_public, num_witness)
        plain = pad_r1cs(*twins, num_public, num_witness)
        for m, t, orig in zip((r1cs.a, r1cs.b, r1cs.c),
                              (plain.a, plain.b, plain.c), mats):
            assert (m.row_map is None) is (orig.row_map is None)
            assert (m.to_dense() == t.to_dense()).all()
        z = fv.rand_vector(r1cs.shape.num_constraints,
                           np.random.default_rng(seed))
        for g, w in zip(r1cs.products(z), plain.products(z)):
            assert g.tolist() == w.tolist()
        assert r1cs.combined_transpose_matvec((3, 5, 7), z).tolist() \
            == plain.combined_transpose_matvec((3, 5, 7), z).tolist()

    def test_fold_is_exact_on_extreme_words(self):
        """The fold sums 16-bit limbs in float64; 2^17 rows of the largest
        uint64 (and of p - 1) onto one stored row, beside a stored row no
        row maps to, equal the Python-int sums."""
        n = 1 << 17
        row_map = np.zeros(n, dtype=np.int32)
        row_map[::2] = 2
        m = SparseMatrix.from_csr(n, 1, [0, 0, 0, 0], [], [], row_map)
        for word in (2**64 - 1, MODULUS - 1):
            y = np.full(n, word, dtype=np.uint64)
            assert m.fold(y).tolist() == [
                n // 2 * word % MODULUS, 0, n // 2 * word % MODULUS]

    def test_pad_to_maps_new_rows_to_one_empty_stored_row(self):
        """An empty stored row takes the padding rows; without one, one
        more stored row (an offset, no entry) is appended."""
        full = SparseMatrix.from_csr(3, 4, [0, 1, 3], [0, 1, 2],
                                     [5, 6, 7], [1, 0, 1])
        padded = full.pad_to(8, 4)
        assert padded.indptr.tolist() == [0, 1, 3, 3]
        assert padded.row_map.tolist() == [1, 0, 1, 2, 2, 2, 2, 2]
        with_empty = SparseMatrix.from_csr(3, 4, [0, 0, 2], [1, 2], [6, 7],
                                           [1, 1, 1])
        padded = with_empty.pad_to(5, 4)
        assert padded.indptr is with_empty.indptr
        assert padded.row_map.tolist() == [1, 1, 1, 0, 0]
        assert full.pad_to(3, 4).row_map is full.row_map

    @pytest.mark.parametrize("row_map,error", [
        ([0, 1], ValueError),           # one entry per row
        ([0, 1, 2], IndexError),        # stored rows are 0..1
        ([0, -1, 1], IndexError),
        ([0.0, 1.0, 1.0], IndexError),
    ])
    def test_from_csr_checks_the_map(self, row_map, error):
        with pytest.raises(error):
            SparseMatrix.from_csr(3, 4, [0, 1, 3], [0, 1, 2], [5, 6, 7],
                                  row_map)


@functools.lru_cache(maxsize=None)
def _keyed(name):
    """A key with its layout built, at the shipped constants: ``aes`` (B
    in distinct-row form, all residual) or ``synthetic_r1cs(16)`` (plane
    groups beside a transposed residual, and fixed-width members that
    take the plane kernel forward)."""
    from repro.workloads import synthetic_r1cs
    from repro.workloads.registry import build_workload

    if name == "aes":
        r1cs = build_workload("aes")[1].compile()[0]
    else:
        r1cs = synthetic_r1cs(16)[0]
    r1cs._stacked()
    return r1cs


class TestCombinedRow:
    """The prover's transposed product takes the point rx and expands
    eq(rx) straight into its buffer of scaled copies: it equals the
    table-taking ``combined_transpose_matvec(coeffs, eq_table(rx))`` on
    plane groups, residuals and row maps alike (when every member has a
    row map, eq(rx) is a separate table)."""

    @pytest.mark.parametrize("tile,cap,reduce_rows", [
        (1, 2, 1), (4, 3, 2), (8, 512, 3), (1 << 15, 512, 1 << 14)])
    @given(mats=st.one_of(stacked_systems(),
                          partly_mapped_systems().map(lambda s: s[0])),
           seed=st.integers(0, 2**32 - 1))
    def test_point_equals_the_eq_table(self, tile, cap, reduce_rows, mats,
                                       seed):
        from repro.multilinear import eq_table

        rng = np.random.default_rng(seed)
        n = mats[0].num_rows
        rx = [int(v) for v in fv.rand_vector(n.bit_length() - 1, rng)]
        coeffs = [int(c) for c in fv.rand_vector(3, rng)]
        with patched_planes(tile, cap, reduce_rows):
            stacked = StackedMatrices(mats)
            got = stacked.scaled_transpose_eq(coeffs, rx)
            want = stacked.scaled_transpose_matvec(coeffs, eq_table(rx))
        assert got.dtype == np.uint64
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("name", ["aes", "synthetic_r1cs(16)"])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_registry_keys(self, name, seed):
        from repro.multilinear import eq_table

        r1cs = _keyed(name)
        rng = np.random.default_rng(seed)
        rx = [int(v) for v in fv.rand_vector(r1cs.shape.log_size, rng)]
        coeffs = [int(c) for c in fv.rand_vector(3, rng)]
        assert r1cs.combined_row(coeffs, rx).tolist() \
            == r1cs.combined_transpose_matvec(coeffs, eq_table(rx)).tolist()

    def test_the_keys_cover_maps_planes_and_residuals(self):
        aes, synthetic = (_keyed(n)._stacked()
                          for n in ("aes", "synthetic_r1cs(16)"))
        assert [m is not None for m in aes.row_maps] == [False, True, False]
        assert aes._transposed.residual is not None
        assert synthetic._transposed.groups
        assert _keyed("synthetic_r1cs(16)").a._plane_width() == 3
        assert synthetic._transposed.residual is not None

    def test_point_must_index_the_rows(self):
        r1cs = _keyed("synthetic_r1cs(16)")
        with pytest.raises(ValueError, match="does not index"):
            r1cs.combined_row((1, 2, 3), [5] * 15)


def _registry_maps():
    """(circuit, matrix) of every matrix that compiles with a row map."""
    from repro.workloads import synthetic_r1cs
    from repro.workloads.registry import build_workload

    names = ["aes", "auction", "litmus", "rsa", "sha"]
    systems = [(n, build_workload(n)[1].compile()[0]) for n in names]
    systems.append(("synthetic_r1cs(12)", synthetic_r1cs(12)[0]))
    return {(name, label) for name, r1cs in systems
            for label, m in zip("abc", (r1cs.a, r1cs.b, r1cs.c))
            if m.row_map is not None}


class TestDistinctRowCompile:
    """``Circuit.compile`` stores one row per distinct LinearCombination
    object of a slot, behind a row map, only where the entries it saves
    outnumber the rows."""

    def test_only_aes_b_carries_a_row_map(self):
        assert _registry_maps() == {("aes", "b")}

    def test_rule_counts_saved_entries_against_rows(self):
        from repro.r1cs.builder import _keeps_row_map

        assert _keeps_row_map(700458, 6747, 12048)
        assert not _keeps_row_map(1329, 1173, 465)      # litmus B
        assert not _keeps_row_map(110, 10, 100)         # saves 100 = rows

    @pytest.mark.parametrize("keep", [True, False])
    def test_forced_rule_compiles_the_same_instance(self, keep):
        """With the rule forced on every slot gets a map, forced off none
        does; either way each matrix expands to the entries of the plain
        build, canonical and column-ordered (from_arrays' guarantees)."""
        from repro.r1cs import builder

        c = Circuit()
        byte = c.from_bits(c.to_bits(c.witness(5), 8))    # 8 terms
        c.lookup(byte, [(3 * i + 1) % 256 for i in range(256)],
                 assume_range=True)
        with mock.patch.object(builder, "_keeps_row_map",
                               lambda *args: keep):
            forced, pub, wit = c.compile()
        plain, _pub, _wit = c.compile()
        assert plain.b.row_map is not None and plain.a.row_map is None
        for m, p in zip((forced.a, forced.b, forced.c),
                        (plain.a, plain.b, plain.c)):
            assert (m.row_map is not None) is keep
            e, pe = m.expanded(), p.expanded()
            assert e.indptr.tolist() == pe.indptr.tolist()
            assert e.cols.tolist() == pe.cols.tolist()
            assert e.vals.tolist() == pe.vals.tolist()
            assert (e.vals != 0).all() and (e.vals < MODULUS).all()
            for r in range(e.num_rows):
                row = e.cols[e.indptr[r]:e.indptr[r + 1]]
                assert (np.diff(row) > 0).all()
        assert forced.is_satisfied(forced.assemble_z(pub, wit))


class TestDistinctRowKey:
    """Memory pins on aes, whose S-box Horner chains feed one byte's
    LinearCombination into 255 constraints: B stores its 1,392 distinct
    rows (6,747 entries) and a row map instead of 700,458 entries, so the
    key is <= 4 MiB with its layout (25.3 MiB in plain CSR) and compile
    peaks <= 12 MiB above the built circuit (~71 MiB in plain CSR).  The
    other workloads keep plain CSR."""

    @pytest.fixture(scope="class")
    def aes(self):
        from repro.workloads.registry import build_workload

        return build_workload("aes")[1]

    def test_aes_key_holds_the_stored_rows(self, aes):
        r1cs = aes.compile()[0]
        r1cs._stacked()
        assert r1cs.nnz == 739746
        assert r1cs.b.stored_nnz <= 7000 and r1cs.b.nnz == 700458
        assert r1cs.nbytes <= 4 << 20, r1cs.nbytes / 2**20

    def test_aes_compile_peak(self, aes):
        _out, _resident, peak = _traced(aes.compile)
        assert peak <= 12 << 20, peak / 2**20

    @pytest.mark.parametrize("name", ["synthetic_r1cs(16)", "sha", "litmus"])
    def test_plain_csr_elsewhere(self, name):
        from repro.workloads import synthetic_r1cs
        from repro.workloads.registry import build_workload

        r1cs = synthetic_r1cs(16)[0] if name.startswith("synthetic") \
            else build_workload(name)[1].compile()[0]
        assert all(m.row_map is None for m in (r1cs.a, r1cs.b, r1cs.c))
