"""Tests for the Goldilocks field: scalar, vectorized, and properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field import Fp, goldilocks as gl
from repro.field import vector as fv

felt = st.integers(0, gl.MODULUS - 1)

EDGE_VALUES = [0, 1, 2, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
               (1 << 63), gl.MODULUS - 2, gl.MODULUS - 1]


class TestScalar:
    def test_modulus_structure(self):
        assert gl.MODULUS == 2**64 - 2**32 + 1
        # p - 1 = 2^32 * (2^32 - 1): 2-adicity 32.
        assert (gl.MODULUS - 1) % (1 << 32) == 0
        assert ((gl.MODULUS - 1) >> 32) % 2 == 1

    def test_generator_order(self):
        # 7 generates the full multiplicative group: it is not a square
        # and has no small-order factor.
        assert pow(gl.GENERATOR, (gl.MODULUS - 1) // 2, gl.MODULUS) != 1

    @given(felt, felt)
    def test_add_sub_inverse_ops(self, a, b):
        assert gl.sub(gl.add(a, b), b) == a
        assert gl.add(gl.sub(a, b), b) == a

    @given(felt, felt)
    def test_mul_matches_bigint(self, a, b):
        assert gl.mul(a, b) == a * b % gl.MODULUS

    @given(felt, felt, felt)
    def test_distributivity(self, a, b, c):
        left = gl.mul(a, gl.add(b, c))
        right = gl.add(gl.mul(a, b), gl.mul(a, c))
        assert left == right

    @given(felt.filter(lambda x: x != 0))
    def test_inverse(self, a):
        assert gl.mul(a, gl.inv(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gl.inv(0)

    def test_edge_value_products(self):
        for a in EDGE_VALUES:
            for b in EDGE_VALUES:
                assert gl.mul(a, b) == a * b % gl.MODULUS, (a, b)

    def test_neg(self):
        assert gl.neg(0) == 0
        assert gl.neg(1) == gl.MODULUS - 1
        for a in EDGE_VALUES:
            assert gl.add(a, gl.neg(a)) == 0

    def test_batch_inv_matches_scalar(self):
        vals = [3, 7, gl.MODULUS - 5, 1 << 40]
        assert gl.batch_inv(vals) == [gl.inv(v) for v in vals]

    def test_batch_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gl.batch_inv([1, 0, 2])

    def test_root_of_unity_orders(self):
        for log_order in (0, 1, 5, 12, 32):
            order = 1 << log_order
            w = gl.root_of_unity(order)
            assert pow(w, order, gl.MODULUS) == 1
            if order > 1:
                assert pow(w, order // 2, gl.MODULUS) != 1

    def test_root_of_unity_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            gl.root_of_unity(3)
        with pytest.raises(ValueError):
            gl.root_of_unity(1 << 33)


class TestFpWrapper:
    def test_operators(self):
        a, b = Fp(5), Fp(7)
        assert (a + b).value == 12
        assert (a - b).value == gl.MODULUS - 2
        assert (a * b).value == 35
        assert (a / b * b) == a
        assert (-a + a).value == 0
        assert (a ** 3).value == 125
        assert int(Fp(gl.MODULUS + 3)) == 3

    def test_mixed_int_operators(self):
        a = Fp(10)
        assert (a + 5) == Fp(15)
        assert (5 + a) == Fp(15)
        assert (a - 3) == Fp(7)
        assert (3 - a) == Fp(-7)
        assert (2 * a) == Fp(20)
        assert (1 / Fp(2)) * 2 == Fp(1)

    def test_equality_and_hash(self):
        assert Fp(3) == 3
        assert Fp(3) == Fp(gl.MODULUS + 3)
        assert hash(Fp(3)) == hash(Fp(3))
        assert bool(Fp(0)) is False
        assert bool(Fp(2)) is True


class TestVectorized:
    def test_matches_scalar_on_random(self, rng):
        a = fv.rand_vector(512, rng)
        b = fv.rand_vector(512, rng)
        for op_v, op_s in ((fv.add, gl.add), (fv.sub, gl.sub), (fv.mul, gl.mul)):
            got = op_v(a, b)
            want = [op_s(int(x), int(y)) for x, y in zip(a, b)]
            assert got.tolist() == want

    def test_edge_grid(self):
        grid = np.array(EDGE_VALUES, dtype=np.uint64)
        for b in EDGE_VALUES:
            bv = np.full(len(EDGE_VALUES), b, dtype=np.uint64)
            assert fv.mul(grid, bv).tolist() == [a * b % gl.MODULUS for a in EDGE_VALUES]
            assert fv.add(grid, bv).tolist() == [(a + b) % gl.MODULUS for a in EDGE_VALUES]
            assert fv.sub(grid, bv).tolist() == [(a - b) % gl.MODULUS for a in EDGE_VALUES]

    def test_neg(self, rng):
        a = fv.rand_vector(64, rng)
        assert (fv.add(a, fv.neg(a)) == 0).all()

    def test_inv_vector(self, rng):
        a = fv.rand_vector(64, rng)
        a = np.where(a == 0, np.uint64(1), a)
        inv = fv.inv_vector(a)
        assert (fv.mul(a, inv) == 1).all()

    def test_inv_vector_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            fv.inv_vector(np.array([1, 0], dtype=np.uint64))

    def test_pow_vector(self, rng):
        a = fv.rand_vector(16, rng)
        got = fv.pow_vector(a, 5)
        assert got.tolist() == [pow(int(x), 5, gl.MODULUS) for x in a]
        assert (fv.pow_vector(a, 0) == 1).all()

    def test_vsum_and_dot_exact(self):
        # Values chosen to overflow uint64 if summed naively.
        a = np.full(1000, gl.MODULUS - 1, dtype=np.uint64)
        assert fv.vsum(a) == 1000 * (gl.MODULUS - 1) % gl.MODULUS
        assert fv.dot(a, a) == 1000 * (gl.MODULUS - 1)**2 % gl.MODULUS

    def test_powers(self):
        got = fv.powers(3, 10)
        assert got.tolist() == [pow(3, i, gl.MODULUS) for i in range(10)]

    def test_mul_scalar(self, rng):
        a = fv.rand_vector(32, rng)
        got = fv.mul_scalar(a, gl.MODULUS - 2)
        assert got.tolist() == [int(x) * (gl.MODULUS - 2) % gl.MODULUS for x in a]

    def test_asfield_canonicalizes(self):
        arr = np.array([gl.MODULUS, gl.MODULUS + 5], dtype=np.uint64)
        assert fv.asfield(arr).tolist() == [0, 5]
        assert fv.asfield([gl.MODULUS + 1, -1]).tolist() == [1, gl.MODULUS - 1]

    def test_rand_vector_in_range(self, rng):
        a = fv.rand_vector(10000, rng)
        assert (a < np.uint64(gl.MODULUS)).all()

    @given(st.lists(felt, min_size=1, max_size=50),
           st.lists(felt, min_size=1, max_size=50))
    def test_mul_commutative_property(self, xs, ys):
        n = min(len(xs), len(ys))
        a = np.array(xs[:n], dtype=np.uint64)
        b = np.array(ys[:n], dtype=np.uint64)
        assert (fv.mul(a, b) == fv.mul(b, a)).all()


def _naive_dot(a, b) -> int:
    return sum(int(x) * int(y) for x, y in zip(a, b)) % gl.MODULUS


class TestDeferredReductionDot:
    """``fv.dot`` sums unreduced 32x32 partial products per tile and
    reduces once: exact for ANY uint64 inputs, whatever their layout."""

    TILE = fv._TILE
    word = st.integers(0, 2**64 - 1)  # includes non-canonical values >= p

    @given(st.lists(st.tuples(word, word), max_size=40))
    def test_matches_bigint_sum(self, pairs):
        a = np.array([x for x, _ in pairs], dtype=np.uint64)
        b = np.array([y for _, y in pairs], dtype=np.uint64)
        assert fv.dot(a, b) == _naive_dot(a, b)

    @pytest.mark.parametrize("n", [0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5])
    def test_tile_boundaries(self, n):
        rng = np.random.default_rng(n)
        a = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        b = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        assert fv.dot(a, b) == _naive_dot(a, b)

    @pytest.mark.parametrize("n", [1, TILE, 3 * TILE + 5])
    def test_accumulator_bound(self, n):
        # All-(2^64 - 1) vectors put every partial product, and so every
        # per-tile sum, at its maximum.
        top = np.full(n, 2**64 - 1, dtype=np.uint64)
        assert fv.dot(top, top) == n * (2**64 - 1) ** 2 % gl.MODULUS

    def test_strided_and_reversed_views(self):
        rng = np.random.default_rng(11)
        n = self.TILE + 37
        a = rng.integers(0, 2**64, size=3 * n, dtype=np.uint64)
        b = rng.integers(0, 2**64, size=3 * n, dtype=np.uint64)
        for va, vb in ((a[::3], b[::3]), (a[:n][::-1], b[:n]),
                       (a[1::3], b[:n][::-1])):
            assert not va.flags["C_CONTIGUOUS"]
            assert fv.dot(va, vb) == _naive_dot(va, vb)

    def test_unequal_lengths_raise(self):
        a = np.arange(4, dtype=np.uint64)
        for x, y in ((a, a[:1]), (a[:1], a), (a, a[:0]),
                     (a.reshape(2, 2), a.reshape(2, 2))):
            with pytest.raises(ValueError):
                fv.dot(x, y)
