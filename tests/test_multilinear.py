"""Tests for MLEs, the generic sumcheck, and the paper's Listing 1."""

import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field import vector as fv
from repro.field.goldilocks import MODULUS
from repro.hashing import Transcript
from repro.multilinear import (
    combine_rows,
    eq_eval,
    eq_table,
    final_challenge_point,
    fold,
    hypercube_sum,
    mle_eval,
    mle_eval_head,
    num_vars,
    prove_sumcheck,
    sumcheck_dp,
    tensor_split_eval,
    verify_sumcheck,
    verify_sumcheck_dp,
    verify_sumcheck_rounds,
)

felt = st.integers(0, MODULUS - 1)


class TestMLE:
    def test_num_vars(self):
        assert num_vars(fv.zeros(16)) == 4
        with pytest.raises(ValueError):
            num_vars(fv.zeros(12))

    def test_mle_agrees_on_hypercube(self, rng):
        table = fv.rand_vector(16, rng)
        for b in range(16):
            point = [(b >> (3 - i)) & 1 for i in range(4)]
            assert mle_eval(table, point) == int(table[b])

    def test_mle_eval_equals_eq_inner_product(self, rng):
        table = fv.rand_vector(64, rng)
        r = [int(x) for x in fv.rand_vector(6, rng)]
        assert mle_eval(table, r) == fv.dot(table, eq_table(r))

    def test_eq_table_sums_to_one(self, rng):
        # sum_b eq(r, b) = 1 for any r (partition of unity).
        r = [int(x) for x in fv.rand_vector(5, rng)]
        assert hypercube_sum(eq_table(r)) == 1

    def test_eq_eval_symmetric(self, rng):
        a = [int(x) for x in fv.rand_vector(4, rng)]
        b = [int(x) for x in fv.rand_vector(4, rng)]
        assert eq_eval(a, b) == eq_eval(b, a)

    def test_eq_eval_matches_table(self, rng):
        r = [int(x) for x in fv.rand_vector(4, rng)]
        table = eq_table(r)
        for b in range(16):
            bits = [(b >> (3 - i)) & 1 for i in range(4)]
            assert int(table[b]) == eq_eval(r, bits)

    def test_fold_binds_top_variable(self, rng):
        table = fv.rand_vector(32, rng)
        r = [int(x) for x in fv.rand_vector(5, rng)]
        folded = fold(table, r[0])
        assert mle_eval(folded, r[1:]) == mle_eval(table, r)

    def test_fold_at_binary_points(self, rng):
        table = fv.rand_vector(8, rng)
        assert (fold(table, 0) == table[:4]).all()
        assert (fold(table, 1) == table[4:]).all()

    def test_tensor_split(self, rng):
        table = fv.rand_vector(64, rng)
        r = [int(x) for x in fv.rand_vector(6, rng)]
        assert tensor_split_eval(table, r[:2], r[2:]) == mle_eval(table, r)

    @given(st.integers(0, 40), st.integers(2, 12), st.integers(0, 2**32))
    def test_mle_eval_head_is_mle_eval_of_the_padded_table(self, count,
                                                           num_vars, seed):
        """The verifier's public half: ``count`` leading entries, zeros
        after.  Same field element as folding all 2^num_vars entries."""
        rng = np.random.default_rng(seed)
        count = min(count, 1 << num_vars)
        head = fv.rand_vector(count, rng)
        point = [int(x) for x in fv.rand_vector(num_vars, rng)]
        padded = np.zeros(1 << num_vars, dtype=np.uint64)
        padded[:count] = head
        assert mle_eval_head(head, point) == mle_eval(padded, point)

    def test_mle_eval_head_rejects_a_head_longer_than_the_table(self, rng):
        with pytest.raises(ValueError):
            mle_eval_head(fv.rand_vector(5, rng), [1, 2])

    def test_combine_rows(self, rng):
        mat = fv.rand_vector(4 * 8, rng).reshape(4, 8)
        coeffs = fv.rand_vector(4, rng)
        got = combine_rows(mat, coeffs)
        for j in range(8):
            want = sum(int(coeffs[i]) * int(mat[i, j]) for i in range(4)) % MODULUS
            assert int(got[j]) == want

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            mle_eval(fv.rand_vector(8, rng), [1, 2])


class TestSumcheck:
    @pytest.mark.parametrize("degree,log_n", [(1, 4), (2, 5), (3, 4), (2, 1)])
    def test_honest_prover_accepted(self, degree, log_n, rng):
        tables = [fv.rand_vector(1 << log_n, rng) for _ in range(degree)]
        prod = tables[0]
        for t in tables[1:]:
            prod = fv.mul(prod, t)
        claim = fv.vsum(prod)
        proof, chal = prove_sumcheck(tables, Transcript())
        res = verify_sumcheck(claim, proof, degree, Transcript())
        assert res.ok, res.reason
        assert res.challenges == chal
        for table, v in zip(tables, proof.final_values):
            assert mle_eval(table, chal) == v

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("log_n", [1, 2, 3, 6])
    def test_round_polynomials_match_naive_sampling(self, degree, log_n, rng):
        """The prover never samples t = degree (the leading coefficient
        stands in for it), yet every round must carry exactly the values a
        sample-at-t = 0..d prover computes."""
        tables = [fv.rand_vector(1 << log_n, rng) for _ in range(degree)]
        proof, chal = prove_sumcheck(tables, Transcript())
        folded = [[int(v) for v in t] for t in tables]
        for evals, r in zip(proof.round_evals, chal):
            half = len(folded[0]) // 2

            def at(t):
                return [[(f[i] + t * (f[half + i] - f[i])) % MODULUS
                         for i in range(half)] for f in folded]

            naive = []
            for t in range(degree + 1):
                total = 0
                for terms in zip(*at(t)):
                    prod = 1
                    for v in terms:
                        prod = prod * v % MODULUS
                    total += prod
                naive.append(total % MODULUS)
            assert evals == naive
            folded = at(r)
        assert proof.final_values == [f[0] for f in folded]

    def test_wrong_claim_rejected(self, rng):
        tables = [fv.rand_vector(16, rng)]
        claim = fv.vsum(tables[0])
        proof, _ = prove_sumcheck(tables, Transcript())
        assert not verify_sumcheck((claim + 1) % MODULUS, proof, 1,
                                   Transcript()).ok

    def test_tampered_round_rejected(self, rng):
        tables = [fv.rand_vector(16, rng), fv.rand_vector(16, rng)]
        claim = fv.vsum(fv.mul(*tables))
        proof, _ = prove_sumcheck(tables, Transcript())
        bad = copy.deepcopy(proof)
        bad.round_evals[1][0] = (bad.round_evals[1][0] + 1) % MODULUS
        assert not verify_sumcheck(claim, bad, 2, Transcript()).ok

    def test_tampered_final_rejected(self, rng):
        tables = [fv.rand_vector(16, rng)]
        claim = fv.vsum(tables[0])
        proof, _ = prove_sumcheck(tables, Transcript())
        bad = copy.deepcopy(proof)
        bad.final_values[0] = (bad.final_values[0] + 1) % MODULUS
        assert not verify_sumcheck(claim, bad, 1, Transcript()).ok

    def test_wrong_degree_rejected(self, rng):
        tables = [fv.rand_vector(16, rng), fv.rand_vector(16, rng)]
        claim = fv.vsum(fv.mul(*tables))
        proof, _ = prove_sumcheck(tables, Transcript())
        assert not verify_sumcheck(claim, proof, 3, Transcript()).ok

    def test_rounds_only_api(self, rng):
        tables = [fv.rand_vector(8, rng)]
        claim = fv.vsum(tables[0])
        proof, chal = prove_sumcheck(tables, Transcript())
        res = verify_sumcheck_rounds(claim, proof.round_evals, 1, Transcript())
        assert res.ok
        assert res.challenges == chal
        assert res.final_claim == mle_eval(tables[0], chal)

    def test_mismatched_table_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            prove_sumcheck([fv.rand_vector(8, rng), fv.rand_vector(16, rng)],
                           Transcript())

    def test_tables_not_mutated(self, rng):
        t = fv.rand_vector(16, rng)
        before = t.copy()
        prove_sumcheck([t], Transcript())
        assert (t == before).all()

    def test_proof_size_accounting(self, rng):
        tables = [fv.rand_vector(16, rng)] * 2
        proof, _ = prove_sumcheck(tables, Transcript())
        # 4 rounds x 3 evals + 2 finals, 8 bytes each.
        assert proof.size_bytes() == (4 * 3 + 2) * 8


class TestListing1:
    def test_matches_hypercube_sum(self, rng):
        a = [int(x) for x in fv.rand_vector(32, rng)]
        result, rx = sumcheck_dp(a)
        claim = sum(a) % MODULUS
        final = mle_eval(np.array(a, dtype=np.uint64), rx)
        assert verify_sumcheck_dp(claim, result, final)

    def test_round_partial_sums(self, rng):
        a = [int(x) for x in fv.rand_vector(16, rng)]
        result, _ = sumcheck_dp(a)
        y0, y1 = result[0]
        assert (y0 + y1) % MODULUS == sum(a) % MODULUS
        # Round 1 splits bottom half vs top half.
        assert y0 == sum(a[:8]) % MODULUS
        assert y1 == sum(a[8:]) % MODULUS

    def test_wrong_claim_rejected(self, rng):
        a = [int(x) for x in fv.rand_vector(16, rng)]
        result, rx = sumcheck_dp(a)
        final = mle_eval(np.array(a, dtype=np.uint64), rx)
        assert not verify_sumcheck_dp((sum(a) + 1) % MODULUS, result, final)

    def test_wrong_final_rejected(self, rng):
        a = [int(x) for x in fv.rand_vector(16, rng)]
        result, rx = sumcheck_dp(a)
        final = mle_eval(np.array(a, dtype=np.uint64), rx)
        assert not verify_sumcheck_dp(sum(a) % MODULUS, result,
                                      (final + 1) % MODULUS)

    def test_challenges_recomputable(self, rng):
        a = [int(x) for x in fv.rand_vector(16, rng)]
        result, rx = sumcheck_dp(a)
        assert final_challenge_point(result) == rx

    def test_equivalent_to_generic_sumcheck(self, rng):
        """Listing 1 and the vectorized degree-1 sumcheck reduce the same
        claim (they differ only in challenge derivation)."""
        a = fv.rand_vector(32, rng)
        claim = fv.vsum(a)
        # Generic path.
        proof, chal = prove_sumcheck([a], Transcript())
        assert verify_sumcheck(claim, proof, 1, Transcript()).ok
        # Listing-1 path.
        result, rx = sumcheck_dp([int(x) for x in a])
        assert verify_sumcheck_dp(claim, result, mle_eval(a, rx))
        # Both reduce to A~ at their respective challenge points.
        assert proof.final_values[0] == mle_eval(a, chal)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            sumcheck_dp([1, 2, 3])
