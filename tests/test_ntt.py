"""Tests for the radix-2 and four-step NTTs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field import vector as fv
from repro.field.goldilocks import MODULUS
from repro.nocap.tasks import ntt_passes
from repro.ntt import fourstep
from repro.ntt import (
    four_step_ntt,
    intt,
    next_pow2,
    ntt,
    ntt_slow,
    poly_eval_domain,
    poly_mul,
    primitive_root,
)

felt = st.integers(0, MODULUS - 1)


class TestRadix2:
    @pytest.mark.parametrize("log_n", [0, 1, 2, 4, 8, 12])
    def test_roundtrip(self, log_n, rng):
        x = fv.rand_vector(1 << log_n, rng)
        assert (intt(ntt(x)) == x).all()
        assert (ntt(intt(x)) == x).all()

    @pytest.mark.parametrize("log_n", [1, 3, 6])
    def test_matches_quadratic_oracle(self, log_n, rng):
        x = fv.rand_vector(1 << log_n, rng)
        assert (ntt(x) == ntt_slow(x)).all()
        assert (intt(x) == ntt_slow(x, inverse=True)).all()

    def test_linearity(self, rng):
        a = fv.rand_vector(64, rng)
        b = fv.rand_vector(64, rng)
        assert (ntt(fv.add(a, b)) == fv.add(ntt(a), ntt(b))).all()

    def test_constant_input(self):
        x = fv.full(16, 7)
        y = ntt(x)
        # NTT of a constant: only the DC term is non-zero.
        assert int(y[0]) == 7 * 16 % MODULUS
        assert (y[1:] == 0).all()

    def test_delta_input(self):
        x = fv.zeros(8)
        x[0] = 1
        assert (ntt(x) == 1).all()

    def test_evaluation_semantics(self, rng):
        # ntt(coeffs)[k] = poly(w^k) in natural order.
        coeffs = fv.rand_vector(8, rng)
        w = primitive_root(8)
        out = ntt(coeffs)
        for k in range(8):
            x = pow(w, k, MODULUS)
            want = 0
            for i, c in enumerate(coeffs):
                want = (want + int(c) * pow(x, i, MODULUS)) % MODULUS
            assert int(out[k]) == want

    def test_batched_2d(self, rng):
        mat = fv.rand_vector(4 * 32, rng).reshape(4, 32)
        batched = ntt(mat)
        for i in range(4):
            assert (batched[i] == ntt(mat[i])).all()

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ntt(fv.zeros(12))

    def test_input_not_mutated(self, rng):
        x = fv.rand_vector(32, rng)
        copy = x.copy()
        ntt(x)
        assert (x == copy).all()


class TestFourStep:
    @pytest.mark.parametrize("log_n,base", [(8, 16), (10, 64), (14, 64),
                                            (13, 4096), (6, 64)])
    def test_matches_radix2(self, log_n, base, rng):
        x = fv.rand_vector(1 << log_n, rng)
        assert (four_step_ntt(x, base_size=base) == ntt(x)).all()

    @pytest.mark.parametrize("log_n,base", [(10, 64), (14, 64)])
    def test_inverse_matches(self, log_n, base, rng):
        x = fv.rand_vector(1 << log_n, rng)
        assert (four_step_ntt(x, inverse=True, base_size=base) == intt(x)).all()

    @pytest.fixture
    def passes(self, monkeypatch):
        """``passes(n, base)``: base-kernel passes each element of a
        length-n four-step NTT takes (elements reaching the radix-2
        kernel, over n).  Only the pass structure is counted, so the
        kernel and the twiddles are stubbed; ``test_matches_radix2``
        checks the values."""
        seen = []

        def kernel(a, inverse=False):
            seen.append(a.size)
            return a

        monkeypatch.setattr(fourstep, "radix2_ntt", kernel)
        monkeypatch.setattr(fourstep, "_twiddle_grid",
                            lambda n1, n2, inverse: np.ones((n1, n2), np.uint64))

        def count(n, base):
            seen.clear()
            four_step_ntt(fv.zeros(n), base_size=base)
            return sum(seen) / n

        return count

    def test_passes_match_model(self, passes):
        """The model's ``nocap.tasks.ntt_passes`` is the recursion's pass
        count, base 2..2^12 and n = 2^0..2^15."""
        got = {(n, base): passes(n, base)
               for base in (1 << k for k in range(1, 13))
               for n in (1 << k for k in range(16))}
        assert {k: v for k, v in got.items() if v != ntt_passes(*k)} == {}

    def test_small_input_single_pass(self, passes):
        assert passes(64, 4096) == 1

    @pytest.mark.parametrize("base", [1, 0, -4, 3, 6])
    def test_rejects_bad_base_size(self, base):
        with pytest.raises(ValueError, match=f"got {base}"):
            four_step_ntt(fv.zeros(64), base_size=base)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            four_step_ntt(fv.zeros(8).reshape(2, 4))


class TestPolyMul:
    @given(st.lists(felt, min_size=1, max_size=20),
           st.lists(felt, min_size=1, max_size=20))
    def test_matches_schoolbook(self, a, b):
        ref = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                ref[i + j] = (ref[i + j] + x * y) % MODULUS
        got = poly_mul(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert got.tolist() == ref

    def test_empty_operand(self):
        assert poly_mul(np.zeros(0, dtype=np.uint64), fv.ones(3)).size == 0

    def test_identity(self, rng):
        a = fv.rand_vector(17, rng)
        one = np.array([1], dtype=np.uint64)
        assert (poly_mul(a, one) == a).all()

    def test_next_pow2(self):
        assert [next_pow2(n) for n in (0, 1, 2, 3, 4, 5, 1023, 1024, 1025)] == \
            [1, 1, 2, 4, 4, 8, 1024, 1024, 2048]

    def test_poly_eval_domain_zero_pads(self, rng):
        coeffs = fv.rand_vector(8, rng)
        out = poly_eval_domain(coeffs, 32)
        padded = np.zeros(32, dtype=np.uint64)
        padded[:8] = coeffs
        assert (out == ntt(padded)).all()

    def test_poly_eval_domain_too_small_rejected(self, rng):
        with pytest.raises(ValueError):
            poly_eval_domain(fv.rand_vector(8, rng), 4)
