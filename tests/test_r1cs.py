"""Tests for sparse matrices, R1CS systems, and the circuit builder."""

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
        order, starts, row_ids = SparseMatrix(4, 4)._group_plan()
        assert order is None and len(starts) == 0 and len(row_ids) == 0

    def test_out_of_bounds_entry_rejected(self):
        with pytest.raises(IndexError):
            SparseMatrix.from_entries(2, 2, [(2, 0, 1)])

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
        stacked plans (built eagerly) must take an empty member."""
        a = SparseMatrix.from_entries(4, 4, [(0, 0, 1), (1, 2, 5)])
        b = SparseMatrix.from_entries(4, 4, [(0, 3, 2), (1, 1, 7)])
        c = SparseMatrix(4, 4)
        stacked = StackedMatrices([a, b, c])
        z = np.array([1, 0, 9, 0], dtype=np.uint64)
        assert stacked.matvec_all(z)[2].tolist() == [0, 0, 0, 0]
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
