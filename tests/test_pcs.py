"""Tests for the Orion polynomial commitment scheme."""

import copy

import numpy as np
import pytest

from repro.code import ExpanderCode, ReedSolomonCode
from repro.field import vector as fv
from repro.field.goldilocks import MODULUS
from repro.hashing import Transcript
from repro.multilinear import mle_eval
from repro.pcs import OrionPCS, PCSParams


def _setup(log_n=8, rows=16, code=None, zk=True, seed=3):
    rng = np.random.default_rng(seed)
    pcs = OrionPCS(code=code or ReedSolomonCode(num_queries=20),
                   params=PCSParams(num_rows=rows, zk_mask=zk), rng=rng)
    table = fv.rand_vector(1 << log_n, rng)
    point = [int(x) for x in fv.rand_vector(log_n, rng)]
    return pcs, table, point


class TestCommitOpenVerify:
    @pytest.mark.parametrize("log_n,rows", [(6, 4), (8, 16), (10, 128),
                                            (4, 16), (7, 1)])
    def test_roundtrip(self, log_n, rows):
        pcs, table, point = _setup(log_n, rows)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        assert pcs.verify(com, point, value, proof, Transcript())

    def test_expander_code_roundtrip(self):
        pcs, table, point = _setup(8, 8, code=ExpanderCode())
        pcs.code.num_queries = 20  # keep the test fast
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        assert pcs.verify(com, point, value, proof, Transcript())

    def test_no_mask_roundtrip(self):
        pcs, table, point = _setup(8, 16, zk=False)
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        assert pcs.verify(com, point, mle_eval(table, point), proof,
                          Transcript())

    @pytest.mark.parametrize("zk", [True, False])
    @pytest.mark.parametrize("log_n", [4, 7, 10, 14])
    def test_eval_row_gives_the_value_and_the_opening(self, log_n, zk):
        """One row combination serves both: ``evaluate_from_row`` of it is
        the MLE value, and handing it to ``open`` changes nothing."""
        pcs, table, _ = _setup(log_n, 16, zk=zk)
        com, state = pcs.commit(table)
        rng = np.random.default_rng(log_n)
        for _ in range(3):
            point = [int(x) for x in fv.rand_vector(log_n, rng)]
            row = pcs.eval_row(state, com, point)
            assert row.dtype == np.uint64 and row.shape == (com.num_cols,)
            value = pcs.evaluate_from_row(row, point, com.num_rows)
            assert value == mle_eval(table, point)
            reused = pcs.open(state, com, point, Transcript(), eval_row=row)
            plain = pcs.open(state, com, point, Transcript())
            assert reused.query_indices == plain.query_indices
            assert reused.merkle == plain.merkle
            for got, want in zip(
                    [reused.eval_row] + reused.proximity_rows + reused.columns,
                    [plain.eval_row] + plain.proximity_rows + plain.columns,
                    strict=True):
                assert np.array_equal(got, want)
            assert pcs.verify(com, point, value, reused, Transcript())

    def test_eval_row_keyword_is_validated(self):
        pcs, table, point = _setup(8, 16)
        com, state = pcs.commit(table)
        row = pcs.eval_row(state, com, point)
        for bad in (row[:-1], row.astype(np.int64), row.tolist(),
                    row.reshape(1, -1)):
            with pytest.raises(ValueError, match="eval_row"):
                pcs.open(state, com, point, Transcript(), eval_row=bad)
        with pytest.raises(ValueError, match="point dimension"):
            pcs.eval_row(state, com, point[:-1])

    def test_non_power_of_two_rejected(self):
        pcs, _, _ = _setup()
        with pytest.raises(ValueError):
            pcs.commit(fv.zeros(12))

    def test_rows_capped_for_tiny_tables(self):
        pcs, _, _ = _setup(2, 128)
        com, _ = pcs.commit(fv.ones(4))
        assert com.num_rows == 4


class TestRejections:
    def test_wrong_value(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        assert not pcs.verify(com, point, (value + 1) % MODULUS, proof,
                              Transcript())

    def test_wrong_point(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        other = list(point)
        other[0] = (other[0] + 1) % MODULUS
        assert not pcs.verify(com, other, value, proof, Transcript())

    def test_tampered_eval_row(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.eval_row = bad.eval_row.copy()
        bad.eval_row[0] = np.uint64((int(bad.eval_row[0]) + 1) % MODULUS)
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_tampered_proximity_row(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.proximity_rows[0] = bad.proximity_rows[0].copy()
        bad.proximity_rows[0][0] ^= np.uint64(1)
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_tampered_column(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.columns[2] = bad.columns[2].copy()
        bad.columns[2][1] ^= np.uint64(1)
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_swapped_columns(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.columns[0], bad.columns[1] = bad.columns[1], bad.columns[0]
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_wrong_root(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        com2 = copy.deepcopy(com)
        com2.root = b"\x00" * 32
        assert not pcs.verify(com2, point, value, proof, Transcript())

    def test_commitment_binding_to_other_polynomial(self):
        """A proof for one polynomial must not verify against the
        commitment to a different one."""
        pcs, table, point = _setup()
        rng = np.random.default_rng(9)
        other = fv.rand_vector(len(table), rng)
        com_other, state_other = pcs.commit(other)
        proof_other = pcs.open(state_other, com_other, point, Transcript())
        # Claim the first table's value under the other commitment.
        value = mle_eval(table, point)
        if value != mle_eval(other, point):
            assert not pcs.verify(com_other, point, value, proof_other,
                                  Transcript())

    def test_wrong_point_dimension(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        assert not pcs.verify(com, point[:-1], 0, proof, Transcript())


class TestZeroKnowledgeMask:
    def test_proximity_rows_are_masked(self):
        """With the zk mask, the proximity responses differ from the raw
        gamma-combination of the data rows."""
        pcs, table, point = _setup(8, 16, zk=True)
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        # Recompute the unmasked combination with the same transcript.
        tr = Transcript()
        tr.absorb_digest(b"pcs/root", com.root)
        gamma = tr.challenge_vector(b"pcs/gamma0", com.num_rows)
        from repro.multilinear import combine_rows

        unmasked = combine_rows(state.matrix[:com.num_rows], gamma)
        assert (proof.proximity_rows[0] != unmasked).any()

    def test_mask_is_random_per_commit(self):
        pcs, table, _ = _setup(8, 16, zk=True)
        _, s1 = pcs.commit(table)
        _, s2 = pcs.commit(table)
        assert (s1.matrix[-1] != s2.matrix[-1]).any()


class TestSizes:
    def test_proof_size_accounting(self):
        pcs, table, point = _setup(10, 16)
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        size = proof.size_bytes()
        assert size > 0
        # Recompute by parts.
        expected = (sum(r.size for r in proof.proximity_rows) * 8
                    + proof.eval_row.size * 8
                    + sum(c.size for c in proof.columns) * 8
                    + proof.merkle.size_bytes())
        assert size == expected

    def test_multiproof_smaller_than_individual_paths(self):
        """The shared multiproof must beat per-query authentication paths."""
        pcs, table, point = _setup(10, 16)
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        individual = sum(state.tree.open(j).size_bytes()
                         for j in proof.query_indices)
        assert proof.merkle.size_bytes() < individual

    def test_more_queries_bigger_proof(self):
        small_pcs = OrionPCS(code=ReedSolomonCode(num_queries=10),
                             params=PCSParams(num_rows=16))
        big_pcs = OrionPCS(code=ReedSolomonCode(num_queries=40),
                           params=PCSParams(num_rows=16))
        rng = np.random.default_rng(4)
        table = fv.rand_vector(1 << 10, rng)
        point = [int(x) for x in fv.rand_vector(10, rng)]
        sizes = []
        for pcs in (small_pcs, big_pcs):
            com, state = pcs.commit(table)
            sizes.append(pcs.open(state, com, point, Transcript()).size_bytes())
        assert sizes[1] > sizes[0]


class TestMalformedProofs:
    def test_missing_proximity_row(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.proximity_rows.pop()
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_extra_proximity_row(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.proximity_rows.append(bad.proximity_rows[0].copy())
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_dropped_column(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.columns.pop()
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_tampered_multiproof_node(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        assert proof.merkle.nodes, "expected shipped sibling digests"
        bad = copy.deepcopy(proof)
        bad.merkle.nodes[0] = b"\xff" * 32
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_truncated_multiproof_nodes(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.merkle.nodes.pop()
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_truncated_column(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.columns[0] = bad.columns[0][:-1]
        assert not pcs.verify(com, point, value, bad, Transcript())
