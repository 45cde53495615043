"""Tests for the Reed-Solomon and expander linear codes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.code import ExpanderCode, ReedSolomonCode
from repro.field import vector as fv
from repro.field.goldilocks import MODULUS

felt = st.integers(0, MODULUS - 1)


class TestReedSolomon:
    def test_blowup_and_length(self, rng):
        rs = ReedSolomonCode()
        cw = rs.encode(fv.rand_vector(64, rng))
        assert cw.size == 256
        assert rs.codeword_length(64) == 256

    def test_systematic_decode_roundtrip(self, rng):
        rs = ReedSolomonCode()
        m = fv.rand_vector(128, rng)
        assert (rs.decode_systematic(rs.encode(m)) == m).all()

    def test_corrupted_codeword_detected(self, rng):
        rs = ReedSolomonCode()
        cw = rs.encode(fv.rand_vector(32, rng))
        cw[5] ^= np.uint64(1)
        with pytest.raises(ValueError):
            rs.decode_systematic(cw)

    @given(st.lists(felt, min_size=16, max_size=16),
           st.lists(felt, min_size=16, max_size=16))
    def test_linearity(self, a, b):
        rs = ReedSolomonCode()
        va = np.array(a, dtype=np.uint64)
        vb = np.array(b, dtype=np.uint64)
        assert (rs.encode(fv.add(va, vb))
                == fv.add(rs.encode(va), rs.encode(vb))).all()

    def test_scaling_linearity(self, rng):
        rs = ReedSolomonCode()
        m = fv.rand_vector(32, rng)
        s = 123456789
        assert (rs.encode(fv.mul_scalar(m, s))
                == fv.mul_scalar(rs.encode(m), s)).all()

    def test_distance_on_sample(self, rng):
        # Distinct messages must differ in > (blowup-1)/blowup of positions
        # minus the degree bound: check a weaker sampled property — two
        # random codewords agree on < n positions.
        rs = ReedSolomonCode()
        n = 64
        c1 = rs.encode(fv.rand_vector(n, rng))
        c2 = rs.encode(fv.rand_vector(n, rng))
        agreements = int((c1 == c2).sum())
        assert agreements < n  # distance 3n+1 means <= n-1 agreements

    def test_encode_rows(self, rng):
        rs = ReedSolomonCode()
        mat = fv.rand_vector(4 * 16, rng).reshape(4, 16)
        enc = rs.encode_rows(mat)
        assert enc.shape == (4, 64)
        for i in range(4):
            assert (enc[i] == rs.encode(mat[i])).all()

    def test_non_power_of_two_rejected(self, rng):
        with pytest.raises(ValueError):
            ReedSolomonCode().encode(fv.rand_vector(12, rng))

    def test_bad_blowup_rejected(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(blowup=3)

    def test_paper_parameters(self):
        rs = ReedSolomonCode()
        assert rs.blowup == 4
        assert rs.num_queries == 189

    def test_butterfly_counter_scales(self, rng):
        def butterflies(n):
            with obs.tracing() as tracer:
                ReedSolomonCode().encode(fv.rand_vector(n, rng))
            return tracer.counters["ntt.butterflies"]

        # 64x the message, 14/8 the stages: superlinear (n log n).
        assert butterflies(1 << 12) == 64 * butterflies(1 << 6) * 14 // 8


class TestExpander:
    def test_blowup_and_length(self, rng):
        ex = ExpanderCode()
        cw = ex.encode(fv.rand_vector(256, rng))
        assert cw.size == 1024

    def test_systematic_prefix(self, rng):
        ex = ExpanderCode()
        m = fv.rand_vector(256, rng)
        assert (ex.encode(m)[:256] == m).all()

    def test_linearity(self, rng):
        ex = ExpanderCode()
        a = fv.rand_vector(512, rng)
        b = fv.rand_vector(512, rng)
        assert (ex.encode(fv.add(a, b))
                == fv.add(ex.encode(a), ex.encode(b))).all()

    def test_deterministic_across_instances(self, rng):
        m = fv.rand_vector(256, rng)
        assert (ExpanderCode(seed=5).encode(m)
                == ExpanderCode(seed=5).encode(m)).all()

    def test_seed_changes_code(self, rng):
        m = fv.rand_vector(256, rng)
        assert (ExpanderCode(seed=1).encode(m)
                != ExpanderCode(seed=2).encode(m)).any()

    def test_base_case_is_reed_solomon(self, rng):
        ex = ExpanderCode()
        m = fv.rand_vector(32, rng)  # below BASE_CASE
        assert (ex.encode(m) == ReedSolomonCode().encode(m)).all()

    def test_paper_query_count(self):
        # Sec. VII-A: expander codes need 1,222 column queries vs RS's 189.
        assert ExpanderCode().num_queries == 1222
        assert ReedSolomonCode().num_queries == 189
