"""Tests for the keygen/prove/verify lifecycle, the proof envelope, and
the canonical top-level import surface."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError, DeserializationError
from repro.r1cs import Circuit
from repro.snark import (
    PAPER,
    PRESETS,
    TEST,
    ProofBundle,
    ProvingKey,
    VerifyingKey,
    preset_by_name,
    proof_from_bytes,
    proof_to_bytes,
    prove,
    setup,
    verify,
)


def _circuit(x=3, out=35):
    c = Circuit()
    o = c.public(out)
    w = c.witness(x)
    c.assert_equal(c.mul(c.mul(w, w), w) + w + 5, o)
    return c


@pytest.fixture(scope="module")
def compiled():
    return _circuit().compile()


@pytest.fixture(scope="module")
def keys(compiled):
    r1cs, _, _ = compiled
    return setup(r1cs, TEST)


@pytest.fixture(scope="module")
def bundle(compiled, keys):
    _, public, witness = compiled
    pk, _ = keys
    return prove(pk, public, witness, seed=11, circuit_id="cube")


class TestLifecycle:
    def test_setup_returns_key_pair(self, compiled):
        r1cs, _, _ = compiled
        pk, vk = setup(r1cs, TEST)
        assert isinstance(pk, ProvingKey) and isinstance(vk, VerifyingKey)
        assert pk.preset is TEST and vk.preset is TEST

    def test_setup_rejects_uncompiled_circuit(self):
        with pytest.raises(TypeError):
            setup(_circuit(), TEST)

    @pytest.mark.parametrize("preset", [TEST, PAPER],
                             ids=lambda p: p.name)
    def test_roundtrip_across_presets(self, compiled, preset):
        r1cs, public, witness = compiled
        pk, vk = setup(r1cs, preset)
        b = prove(pk, public, witness, seed=1)
        assert b.preset_name == preset.name
        assert verify(vk, b)

    def test_verify(self, keys, bundle):
        _, vk = keys
        assert verify(vk, bundle)

    def test_wrong_public_rejected(self, keys, bundle):
        _, vk = keys
        bad = ProofBundle(proof=bundle.proof, public=bundle.public.copy(),
                          preset_name=bundle.preset_name)
        bad.public[1] = 36
        assert not verify(vk, bad)

    def test_preset_mismatch_rejected(self, compiled, bundle):
        r1cs, _, _ = compiled
        _, vk_paper = setup(r1cs, PAPER)
        assert not verify(vk_paper, bundle)

    def test_verify_total_on_junk(self, keys):
        _, vk = keys
        assert not verify(vk, None)
        assert not verify(vk, object())
        assert not verify(None, ProofBundle(proof=None, public=np.zeros(1)))

    def test_seeded_prove_is_deterministic(self, compiled, keys, bundle):
        _, public, witness = compiled
        pk, _ = keys
        again = prove(pk, public, witness, seed=11, circuit_id="cube")
        assert again.to_bytes() == bundle.to_bytes()

    def test_distinct_seeds_distinct_proofs(self, compiled, keys):
        r1cs, public, witness = compiled
        pk, _ = keys
        a = prove(pk, public, witness, seed=1)
        b = prove(pk, public, witness, seed=2)
        assert proof_to_bytes(a.proof) != proof_to_bytes(b.proof)

    def test_presets(self):
        assert PAPER.sumcheck_repetitions == 3
        assert PAPER.pcs_rows == 128
        assert PAPER.column_queries == 189
        assert PAPER.rs_blowup == 4
        assert PAPER.proximity_vectors == 4
        assert TEST.sumcheck_repetitions == 1

    def test_preset_factories(self):
        pcs = PAPER.make_pcs()
        assert pcs.params.num_rows == 128
        assert pcs.code.num_queries == 189
        assert PAPER.make_spartan_params().repetitions == 3

    def test_preset_registry(self):
        assert set(PRESETS) == {"paper-128bit", "test-fast"}
        assert preset_by_name("test-fast") is TEST
        with pytest.raises(ConfigError):
            preset_by_name("no-such-preset")


class TestEnvelope:
    def test_roundtrip(self, keys, bundle):
        _, vk = keys
        restored = ProofBundle.from_bytes(bundle.to_bytes())
        assert restored.preset_name == TEST.name
        assert restored.circuit_id == "cube"
        assert np.array_equal(restored.public, bundle.public)
        assert verify(vk, restored)

    def test_roundtrip_stable(self, bundle):
        data = bundle.to_bytes()
        assert ProofBundle.from_bytes(data).to_bytes() == data

    def test_bundle_without_preset_cannot_serialize(self, bundle):
        anon = ProofBundle(proof=bundle.proof, public=bundle.public)
        with pytest.raises(ValueError):
            anon.to_bytes()

    def test_bad_magic(self, bundle):
        with pytest.raises(DeserializationError):
            ProofBundle.from_bytes(b"XXXX" + bundle.to_bytes()[4:])

    def test_unknown_version(self, bundle):
        """Versions 1 (word-chain leaves) and 2 (one transcript absorb per
        gamma coefficient) are as foreign as version 99: their roots or
        challenges cannot verify here, so they are refused at the version
        byte instead of failing verification later."""
        data = bytearray(bundle.to_bytes())
        assert data[4] == 3
        for version in (1, 2, 99):
            data[4] = version
            with pytest.raises(DeserializationError) as ei:
                ProofBundle.from_bytes(bytes(data))
            assert ei.value.offset == 4

    def test_unknown_preset_id(self, compiled, keys):
        r1cs, public, witness = compiled
        pk, _ = keys
        b = prove(pk, public, witness, seed=3)
        b.preset_name = "test-fast"[::-1]  # right length, wrong name
        with pytest.raises(DeserializationError):
            ProofBundle.from_bytes(b.to_bytes())

    def test_truncated(self, bundle):
        data = bundle.to_bytes()
        for cut in (3, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(DeserializationError):
                ProofBundle.from_bytes(data[:cut])

    def test_truncated_at_every_offset_reports_position(self, bundle):
        """A bundle file cut short at ANY byte — a torn download, a full
        disk — must fail with the typed error carrying the byte offset
        where parsing stopped, never an IndexError/struct.error crash."""
        data = bundle.to_bytes()
        cuts = set(range(min(len(data), 64)))          # dense header sweep
        cuts.update(range(64, len(data), 97))          # sampled body
        cuts.add(len(data) - 1)
        for cut in sorted(cuts):
            with pytest.raises(DeserializationError) as ei:
                ProofBundle.from_bytes(data[:cut])
            assert ei.value.offset is not None, \
                f"truncation at {cut} lost its byte offset"
            assert 0 <= ei.value.offset <= cut, \
                f"offset {ei.value.offset} points past the {cut}-byte input"
            assert str(ei.value.offset) in str(ei.value)

    def test_trailing_garbage(self, bundle):
        with pytest.raises(DeserializationError):
            ProofBundle.from_bytes(bundle.to_bytes() + b"\x00")

    def test_not_bytes(self):
        with pytest.raises(DeserializationError):
            ProofBundle.from_bytes("not bytes")

    def test_fuzzed_envelopes_never_crash(self, keys, bundle):
        """Seeded byte-level mutants either fail to parse with the typed
        error or parse and fail verification — nothing else escapes."""
        import random

        from repro.fuzz.mutate import random_mutants

        _, vk = keys
        data = bundle.to_bytes()
        rng = random.Random(0xE17)
        accepted = 0
        for mutant in random_mutants(data, rng, count=120):
            try:
                parsed = ProofBundle.from_bytes(mutant.data)
            except DeserializationError:
                continue
            accepted += verify(vk, parsed)
        assert accepted == 0


class TestGoldenProofBytes:
    """Proof bytes are a fixed point across commits: a change to a kernel,
    a sumcheck prover or the commit path that moves one byte fails here.

    The digests pin the NCPE v3 envelope (a format change regenerates them
    on purpose; v3 re-pinned them when ``Transcript.challenge_vector``
    became one absorb per vector — with the v2 derivation patched back in,
    the same code reproduced the v2 digests for every value of
    ``table.SCALAR_TAIL``).  Their only dependency outside this repo is numpy's
    ``Generator`` stream (``default_rng(seed)`` draws the zk mask and the
    synthetic instance), which numpy keeps stable across releases.
    """

    @staticmethod
    def _digest(r1cs, public, witness, circuit_id):
        pk, vk = setup(r1cs, PAPER)
        proved = prove(pk, public, witness, seed=7, circuit_id=circuit_id)
        assert verify(vk, proved)
        return hashlib.sha256(proved.to_bytes()).hexdigest()

    def test_registry_litmus(self):
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload("litmus")
        assert self._digest(*circuit.compile(), circuit_id) == (
            "954f8e704a80cb5be333adfcb26029d2bfdd96469efdfe81cefc592afd806e65")

    def test_synthetic_2p12(self):
        from repro.workloads import synthetic_r1cs

        assert self._digest(*synthetic_r1cs(12), "synthetic-2p12") == (
            "90ed7fb533f379d837d6b77e8b089d24be7b3040e2465e9c1f39098980ed6f74")

    def test_registry_aes(self):
        """The one registry circuit whose key stores repeated rows once
        (B's row map); recorded when every matrix was plain CSR."""
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload("aes")
        assert self._digest(*circuit.compile(), circuit_id) == (
            "35f9d7c46fbd673e5c41d5e9b4f4532d9cfb79a535b12ec3195911b2bc0d39e8")


class TestRowMapProofBytes:
    """The distinct-row form changes no statement: with
    ``Circuit.compile``'s rule forced on (every matrix mapped) and forced
    off (none), the proof bytes are equal and each key verifies the
    other's proof."""

    @pytest.mark.parametrize("name", ["litmus", "sha", "aes"])
    def test_rule_forced_on_and_off(self, name, monkeypatch):
        from repro.r1cs import builder
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload(name)
        keys, blobs = [], []
        for keep in (True, False):
            monkeypatch.setattr(builder, "_keeps_row_map",
                                lambda *args: keep)
            r1cs, public, witness = circuit.compile()
            assert all((m.row_map is not None) is keep
                       for m in (r1cs.a, r1cs.b, r1cs.c))
            pk, vk = setup(r1cs, PAPER)
            blobs.append(prove(pk, public, witness, seed=7,
                               circuit_id=circuit_id).to_bytes())
            keys.append(vk)
        assert blobs[0] == blobs[1]
        for vk in keys:
            assert verify(vk, ProofBundle.from_bytes(blobs[0]))


class TestSerialization:
    def test_roundtrip(self, keys, bundle):
        _, vk = keys
        data = proof_to_bytes(bundle.proof)
        restored = proof_from_bytes(data)
        assert verify(vk, ProofBundle(proof=restored, public=bundle.public))

    def test_roundtrip_stable(self, bundle):
        data = proof_to_bytes(bundle.proof)
        assert proof_to_bytes(proof_from_bytes(data)) == data

    def test_corruption_detected(self, keys, bundle):
        """Any single-byte corruption either fails to parse or fails to
        verify (sampled offsets)."""
        _, vk = keys
        data = proof_to_bytes(bundle.proof)
        for offset in range(10, len(data), max(1, len(data) // 12)):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0xFF
            try:
                proof = proof_from_bytes(bytes(corrupted))
            except (ValueError, OverflowError):
                continue
            assert not verify(
                vk, ProofBundle(proof=proof, public=bundle.public)), offset

    def test_wire_size_matches_accounting_order(self, bundle):
        data = proof_to_bytes(bundle.proof)
        # Wire format carries framing, so it is somewhat larger than the
        # raw payload accounting but within 2x.
        assert (bundle.proof.size_bytes() < len(data)
                < 2 * bundle.proof.size_bytes() + 256)


class TestCanonicalSurface:
    """The post-shim API contract: one import surface, no leftovers."""

    def test_top_level_reexports(self):
        import repro

        for name in ("setup", "prove", "prove_many", "verify",
                     "ProvingKey", "VerifyingKey", "ProofBundle",
                     "JobResult", "TEST", "PAPER", "ServiceClient"):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_deprecated_facade_removed(self):
        import repro
        import repro.snark

        for mod in (repro, repro.snark):
            assert not hasattr(mod, "Snark")
            assert not hasattr(mod, "prove_and_verify")

    def test_top_level_matches_snark(self):
        import repro
        import repro.snark

        assert repro.setup is repro.snark.setup
        assert repro.prove is repro.snark.prove
        assert repro.verify is repro.snark.verify
        assert repro.prove_many is repro.snark.prove_many
