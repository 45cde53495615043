"""Cross-module integration tests: every demo workload proven end to end
through the full Spartan+Orion pipeline, plus cross-layer consistency
between the functional layer and the performance model."""

import numpy as np
import pytest

from repro.snark import (
    PAPER,
    TEST,
    ProofBundle,
    proof_from_bytes,
    proof_to_bytes,
    prove,
    setup,
    verify,
)
from repro.workloads.registry import build_workload
from repro.workloads.spec import PAPER_WORKLOADS


class TestAllWorkloadsProve:
    """Each paper workload's demo circuit round-trips through the SNARK."""

    @pytest.mark.parametrize("name", ["AES", "SHA", "RSA", "Litmus", "Auction"])
    def test_prove_verify_serialize(self, name):
        spec = next(w for w in PAPER_WORKLOADS if w.name == name)
        circuit_id, circuit = build_workload(spec.circuit_id)
        r1cs, public, witness = circuit.compile()
        pk, vk = setup(r1cs, TEST)
        bundle = prove(pk, public, witness, seed=1, circuit_id=circuit_id)
        assert verify(vk, bundle), name
        queries = TEST.column_queries
        restored = proof_from_bytes(
            proof_to_bytes(bundle.proof, column_queries=queries),
            column_queries=queries)
        assert verify(vk, ProofBundle(proof=restored,
                                      public=bundle.public)), name


class TestPaperPreset:
    def test_paper_parameters_prove_small_circuit(self):
        """The full 128-bit parameterization (3 repetitions, 128 rows,
        189 queries) works end to end on a small instance."""
        from repro.r1cs import Circuit

        c = Circuit()
        out = c.public(35)
        x = c.witness(3)
        c.assert_equal(c.mul(c.mul(x, x), x) + x + 5, out)
        r1cs, public, witness = c.compile()
        pk, vk = setup(r1cs, PAPER)
        bundle = prove(pk, public, witness, seed=2)
        assert verify(vk, bundle)
        assert len(bundle.proof.repetitions) == 3


class TestCrossLayerConsistency:
    def test_functional_hash_packing_matches_hash_fu_model(self):
        """The model charges the Hash FU per element absorbed, 128
        elements (one 1 KB line) per cycle; a packed leaf absorbs exactly
        8 bytes per element behind its tag, with no padding words."""
        import hashlib

        from repro.hashing.fieldhash import LEAF_TAG, hash_elements

        line = np.arange(128, dtype=np.uint64)
        preimage = LEAF_TAG + line.astype("<u8").tobytes()
        assert len(preimage) - len(LEAF_TAG) == 1024  # 1 KB/cycle
        assert hash_elements(line) == hashlib.sha3_256(preimage).digest()

    def test_cost_model_query_params_match_functional_defaults(self):
        """The PAPER preset and the cost-model constants agree."""
        from repro.nocap import constants as C

        assert PAPER.sumcheck_repetitions == C.SUMCHECK_REPETITIONS
        assert PAPER.pcs_rows == C.ORION_ROWS

    def test_rs_code_cost_matches_ntt_structure(self):
        """The ``ntt.butterflies`` counter of a batched ``encode_rows``
        books one full radix-2 NTT of the codeword per row:
        (4n / 2) * log2(4n) butterflies."""
        from repro import obs
        from repro.code import ReedSolomonCode

        rows, n = 8, 1 << 10
        message = np.arange(rows * n, dtype=np.uint64).reshape(rows, n)
        with obs.tracing() as tracer:
            ReedSolomonCode().encode_rows(message)
        counters = tracer.counters
        codeword = 4 * n
        butterflies = (codeword // 2) * (codeword.bit_length() - 1)
        assert counters["ntt.butterflies"] == rows * butterflies
        assert counters["rs.rows_encoded"] == rows

    def test_sumcheck_proof_size_vs_model(self):
        """A functional sumcheck's message volume matches the analytic
        accounting (rounds x (degree+1) evaluations)."""
        from repro.field import vector as fv
        from repro.hashing import Transcript
        from repro.multilinear import prove_sumcheck

        rng = np.random.default_rng(3)
        tables = [fv.rand_vector(1 << 8, rng) for _ in range(3)]
        proof, _ = prove_sumcheck(tables, Transcript())
        assert [len(r) for r in proof.round_evals] == [4] * 8
        assert len(proof.final_values) == 3


class TestAlternativeCodes:
    def test_spartan_with_expander_code(self):
        """The PCS is code-agnostic: the full SNARK round-trips over the
        expander-graph code Orion originally used."""
        from repro.code import ExpanderCode
        from repro.hashing import Transcript
        from repro.pcs import OrionPCS, PCSParams
        from repro.spartan import SpartanParams, SpartanProver, SpartanVerifier
        from repro.workloads import synthetic_r1cs

        r1cs, pub, wit = synthetic_r1cs(6, band=8, seed=77)
        code = ExpanderCode()
        code.num_queries = 24  # keep the test fast
        pcs = OrionPCS(code=code, params=PCSParams(num_rows=8),
                       rng=np.random.default_rng(4))
        params = SpartanParams(repetitions=1)
        proof = SpartanProver(r1cs, pcs, params).prove(pub, wit)
        assert SpartanVerifier(r1cs, pcs, params).verify(pub, proof)


class TestConfigImmutability:
    def test_config_is_frozen(self):
        from dataclasses import FrozenInstanceError

        from repro.nocap import DEFAULT_CONFIG

        with pytest.raises(FrozenInstanceError):
            DEFAULT_CONFIG.mul_lanes = 1  # type: ignore[misc]

    def test_scale_returns_new_instance(self):
        from repro.nocap import DEFAULT_CONFIG

        scaled = DEFAULT_CONFIG.scale(hbm=2.0)
        assert scaled is not DEFAULT_CONFIG
        assert DEFAULT_CONFIG.hbm_bytes_per_s == 1e12
