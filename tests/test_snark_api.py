"""Tests for the keygen/prove/verify lifecycle, the proof envelope, and
the canonical top-level import surface."""

import copy
import dataclasses
import functools
import hashlib
import inspect

import numpy as np
import pytest

from repro.errors import ConfigError, DeserializationError
from repro.field.goldilocks import MODULUS
from repro.obs.events import FLIGHT
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
    prove_many,
    setup,
    verify,
)
from repro.pcs.orion import opened_columns, rows_mode, shared_message


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

    @pytest.mark.parametrize("preset_name,circuit_id,refused", [
        ("", "cube", True),                  # no preset id
        (TEST.name, "x" * 300, True),        # past the 255-byte cap
        (TEST.name, "\u00e9" * 128, True),   # 128 chars, 256 utf-8 bytes
        (TEST.name, "x" * 255, False),       # at the cap
        ("p" * 64, "", True),                # at the cap, but no preset
    ], ids=["no-preset", "circuit-300", "circuit-256-utf8", "circuit-255",
            "preset-64"])
    def test_size_bytes_follows_to_bytes(self, bundle, preset_name,
                                         circuit_id, refused):
        """``size_bytes() == len(to_bytes())`` for every bundle, or both
        raise the one label error (a preset id no preset has is one: the
        payload's mode follows from the preset's query count)."""
        b = dataclasses.replace(bundle, preset_name=preset_name,
                                circuit_id=circuit_id)
        if not refused:
            assert b.size_bytes() == len(b.to_bytes())
            return
        with pytest.raises(ValueError) as sent:
            b.to_bytes()
        with pytest.raises(ValueError) as counted:
            b.size_bytes()
        assert str(counted.value) == str(sent.value)

    def test_prove_refuses_a_circuit_id_the_envelope_cannot_carry(
            self, compiled, keys, bundle, monkeypatch):
        """``prove`` and a pooled ``prove_many`` raise ``to_bytes``'s
        error before proving anything: no worker fails a job, and no job
        is re-proved here."""
        _, public, witness = compiled
        pk, _ = keys
        long_id = "x" * 300
        with pytest.raises(ValueError) as sent:
            dataclasses.replace(bundle, circuit_id=long_id).to_bytes()

        def proved(*args, **kwargs):
            raise AssertionError("a job was proved")

        monkeypatch.setattr(ProvingKey, "prover", proved)
        before = FLIGHT.incidents()
        with pytest.raises(ValueError) as refused:
            prove(pk, public, witness, seed=1, circuit_id=long_id)
        assert str(refused.value) == str(sent.value)
        with pytest.raises(ValueError) as refused:
            prove_many(pk, [(public, witness)] * 2, workers=2,
                       base_seed=1, circuit_id=long_id)
        assert str(refused.value) == str(sent.value)
        assert FLIGHT.fault_deltas(before) == {}

    def test_bad_magic(self, bundle):
        with pytest.raises(DeserializationError):
            ProofBundle.from_bytes(b"XXXX" + bundle.to_bytes()[4:])

    def test_unknown_version(self, bundle):
        """Versions 1 (word-chain leaves), 2 (one transcript absorb per
        gamma coefficient), 3 (opened columns once per repetition), 4
        (every row of the column table on the wire), 5 (the column table
        where the rows block now goes) and 6 (a PCS part beside the rows
        block) are as foreign as version 99: their roots, challenges or
        layout do not parse or verify here, so they are refused at the
        version byte."""
        data = bytearray(bundle.to_bytes())
        assert data[4] == 7
        for version in (1, 2, 3, 4, 5, 6, 99):
            data[4] = version
            with pytest.raises(DeserializationError) as ei:
                ProofBundle.from_bytes(bytes(data))
            assert ei.value.offset == 4

    def test_unknown_preset_id(self, compiled, keys):
        r1cs, public, witness = compiled
        pk, _ = keys
        b = prove(pk, public, witness, seed=3)
        data = b.to_bytes()
        assert data[5:6 + len(TEST.name)] == bytes([9]) + b"test-fast"
        # right length, wrong name
        data = data[:6] + b"test-fast"[::-1] + data[6 + len(TEST.name):]
        with pytest.raises(DeserializationError, match="unknown preset"):
            ProofBundle.from_bytes(data)

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

    The digests pin the NCPE v7 envelope (a format change regenerates them
    on purpose; v3 re-pinned them when ``Transcript.challenge_vector``
    became one absorb per vector — with the v2 derivation patched back in,
    the same code reproduced the v2 digests for every value of
    ``table.SCALAR_TAIL``; v4 re-pinned them when the repetitions' opened
    columns became one table, v5 when the table left out its zero rows,
    v6 when an opening that fixes every row ships the rows, and v7 when
    such an opening became its message alone; none moved the Spartan
    part: :class:`TestProofObjectsDidNotMove`).  Their only dependency outside
    this repo is numpy's ``Generator`` stream (``default_rng(seed)`` draws
    the zk mask and the synthetic instance), which numpy keeps stable
    across releases.
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
            "1e212d41b5f31b3bcd11713aa621330783e4f0a8cd89bdff54e4e483d934650a")

    def test_synthetic_2p12(self):
        from repro.workloads import synthetic_r1cs

        assert self._digest(*synthetic_r1cs(12), "synthetic-2p12") == (
            "db3a23c5430d113d512c92946d70b5d6861d52902db2bd5c1bca921ba8988771")

    def test_registry_aes(self):
        """The one registry circuit whose key stores repeated rows once
        (B's row map); recorded when every matrix was plain CSR."""
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload("aes")
        assert self._digest(*circuit.compile(), circuit_id) == (
            "893ad80a44888278973ddbae7bd37de8a15721defd3b15a2dd31b303c42e576f")


REGISTRY_NAMES = ("aes", "sha", "rsa", "litmus", "auction")


@functools.lru_cache(maxsize=None)
def _seed7(name, preset_name):
    """``(vk, bundle)`` of ``prove(..., seed=7)`` of registry ``name`` (or
    ``synthetic-2p12`` / ``synthetic-2p16``) under a preset, built once
    per test session."""
    from repro.workloads import synthetic_r1cs
    from repro.workloads.registry import build_workload

    if name.startswith("synthetic-2p"):
        circuit_id, compiled = name, synthetic_r1cs(int(name[12:]))
    else:
        circuit_id, circuit = build_workload(name)
        compiled = circuit.compile()
    r1cs, public, witness = compiled
    pk, vk = setup(r1cs, preset_by_name(preset_name))
    return vk, prove(pk, public, witness, seed=7, circuit_id=circuit_id)


def _ints(h, values):
    arr = np.asarray([int(v) for v in values], dtype="<u8")
    h.update(len(arr).to_bytes(4, "little") + arr.tobytes())


def _spartan_digest(proof):
    """SHA-256 of the Spartan part of a proof OBJECT and the committed
    message: the commitment, then per repetition its round evaluations
    and claims (``va``, ``vb``, ``vc``, ``w_eval``), then the message
    matrix (mask row last) — what NCPE v6 and v7 proofs of one seeded
    statement share."""
    h = hashlib.sha256()
    c = proof.witness_commitment
    h.update(c.root)
    _ints(h, [c.table_len, c.num_rows, c.num_cols, len(proof.repetitions)])
    for rp in proof.repetitions:
        for evals in rp.sc1_round_evals:
            _ints(h, evals)
        _ints(h, [rp.va, rp.vb, rp.vc, rp.w_eval])
        for evals in rp.sc2.round_evals:
            _ints(h, evals)
        _ints(h, rp.sc2.final_values)
    message = np.asarray(proof.repetitions[0].pcs_proof.message, "<u8")
    _ints(h, message.shape)
    h.update(message.tobytes())
    return h.hexdigest()


def _object_digest(proof):
    """SHA-256 of a walk of the whole proof OBJECT, independent of any
    wire layout: :func:`_spartan_digest`'s part, then per opening its
    combination rows, query indices, columns in Merkle order, sibling
    digests and message — every value a verifier reads."""
    h = hashlib.sha256()
    c = proof.witness_commitment
    h.update(c.root)
    _ints(h, [c.table_len, c.num_rows, c.num_cols, len(proof.repetitions)])
    for rp in proof.repetitions:
        for evals in rp.sc1_round_evals + rp.sc2.round_evals:
            _ints(h, evals)
        _ints(h, [rp.va, rp.vb, rp.vc, rp.w_eval])
        _ints(h, rp.sc2.final_values)
        p = rp.pcs_proof
        for row in p.proximity_rows + ([] if p.eval_row is None
                                       else [p.eval_row]):
            _ints(h, row)
        _ints(h, p.query_indices)
        for col in p.columns:
            _ints(h, col)
        if p.merkle is not None:
            _ints(h, p.merkle.indices)
            h.update(b"".join(p.merkle.nodes))
        if p.message is not None:
            h.update(np.asarray(p.message, "<u8").tobytes())
    return h.hexdigest()


def _unversioned(envelope):
    """``envelope`` with the envelope's and the payload's version bytes
    zeroed: the bytes a format bump that leaves a payload alone keeps."""
    data = bytearray(envelope)
    data[4] = 0
    public = ProofBundle.from_bytes(envelope).public
    pos = 7 + data[5] + data[6 + data[5]]   # past the two labels
    pos += 4 + 8 * len(public) + 4          # the public inputs, the length
    assert data[pos:pos + 4] == b"NCAP"
    data[pos + 4] = 0
    return bytes(data)


class TestProofObjectsDidNotMove:
    """The rows-mode opening by disclosure is a PCS change only: the PCS
    runs on a fork of the Spartan transcript, so every sumcheck message,
    ``va``/``vb``/``vc``, ``w_eval`` and the commitment of a seeded PAPER
    prove — and the message each rows-mode opening is — are the ones the
    NCPE v6 code made, and a decoded envelope gives them back."""

    #: :func:`_spartan_digest`, recorded on the NCPE v6 code.
    DIGESTS = {
        "litmus": "a535e3f1a4ac9dfecf774c5026038f39"
                  "4209927265e1c7141ac3d8b3f79359b8",
        "auction": "981d17026bad144e55125fbcbbc2b8a4"
                   "f8ddb521febb6a948699b12b52239bbf",
        "rsa": "64fcadfb724df0ad9a5acf613f262424"
               "33b2435e40e7e2ae0dca2bc64948b78f",
        "sha": "a1cdf92bd0560795e5b98b219ce52708"
               "a0a53e105829ef13c19d5da9ff25cf23",
        "aes": "998cd28716c01e1501d2de53bce5f844"
               "1744b2c9fc9e7640bd39d7cdcac65be6",
        "synthetic-2p12": "380b0fa279117601a1acc989d8e7bf8f"
                          "f054447dec65de86e38d7f57ecfb3a66",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_decoded_envelope_reproduces_the_objects(self, name):
        vk, bundle = _seed7(name, PAPER.name)
        assert _spartan_digest(bundle.proof) == self.DIGESTS[name]
        decoded = ProofBundle.from_bytes(bundle.to_bytes())
        assert _spartan_digest(decoded.proof) == self.DIGESTS[name]
        assert _object_digest(decoded.proof) == _object_digest(bundle.proof)
        assert verify(vk, decoded)


class TestColumnsModeBytesDidNotMove:
    """A columns-mode payload is the NCPE v6 one: the envelope's bytes but
    its two version bytes, recorded on the v6 code, for PAPER
    ``synthetic_r1cs(16)`` (256 columns, 189 queries) and TEST
    ``synthetic_r1cs(10)`` (32 columns, 24 queries)."""

    DIGESTS = {
        ("synthetic-2p16", PAPER.name): (
            566_555, "9919489e3ccb13c792634e6856c89ec1"
                     "523e89b5bcb6f14fe92ce3dbf7a8985f"),
        ("synthetic-2p10", TEST.name): (
            6_542, "9f05488f0656b7a25afe447107ce3f10"
                   "48934b13920b7ff9270f3bd8f831a0ce"),
    }

    @pytest.mark.parametrize("name,preset", sorted(DIGESTS))
    def test_envelope_but_its_version_bytes(self, name, preset):
        vk, bundle = _seed7(name, preset)
        data = bundle.to_bytes()
        assert not rows_mode(bundle.proof.witness_commitment.num_cols,
                             preset_by_name(preset).column_queries)
        length, digest = self.DIGESTS[(name, preset)]
        assert len(data) == length
        assert hashlib.sha256(_unversioned(data)).hexdigest() == digest
        assert verify(vk, ProofBundle.from_bytes(data))


class TestWireSize:
    """What a proof costs on the link: each opened column travels once,
    its zero rows not at all; an opening whose message is no wider than
    the query count is the message alone; and the size a bundle reports
    is its envelope's length."""

    #: ``len(prove(pk, ..., seed=7).to_bytes())`` under PAPER, where every
    #: registry circuit opens in rows mode; with each repetition's columns
    #: on the wire (NCPE v3) they were 627,311 / 606,095 / 406,111 /
    #: 52,842 / 52,723 bytes, with every row of the column table (NCPE
    #: v4) 442,895 / 278,711 / 140,887 / 19,682 / 19,563, with the column
    #: table's live rows (NCPE v5) 335,552 / 151,224 / 79,980 / 11,319 /
    #: 15,296, and with a PCS part beside the rows block (NCPE v6)
    #: 137,188 / 52,484 / 26,216 / 5,171 / 6,076.
    PAPER_ENVELOPE_BYTES = {"aes": 100_712, "sha": 36_840, "rsa": 20_744,
                            "litmus": 4_403, "auction": 5_308}

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_paper_envelope_length(self, name):
        _, bundle = _seed7(name, PAPER.name)
        assert len(bundle.to_bytes()) == self.PAPER_ENVELOPE_BYTES[name]

    def test_rows_mode_length_does_not_depend_on_the_seed(self):
        """A rows-mode payload carries no query indices or siblings, whose
        count moved with the seed: ``sha`` is 36,840 bytes at any seed."""
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload("sha")
        r1cs, public, witness = circuit.compile()
        pk, _ = setup(r1cs, PAPER)
        for seed in (1, 2, 1_000_004):
            bundle = prove(pk, public, witness, seed=seed,
                           circuit_id=circuit_id)
            assert len(bundle.to_bytes()) == 36_840

    @pytest.mark.parametrize("preset", [PAPER.name, TEST.name])
    @pytest.mark.parametrize("name", REGISTRY_NAMES + ("synthetic-2p12",))
    def test_size_bytes_is_the_envelope_length(self, name, preset):
        _, bundle = _seed7(name, preset)
        assert bundle.size_bytes() == len(bundle.to_bytes())
        assert bundle.report.proof_size_bytes == bundle.size_bytes()

    def test_each_distinct_column_once(self):
        """``synthetic_r1cs(16)`` (256 columns, more than 189 queries)
        opens in columns mode: the payload carries each of the three
        repetitions' distinct columns once, and a decoded repetition reads
        a column another one opens as a read-only view of the same table
        row."""
        _, bundle = _seed7("synthetic-2p16", PAPER.name)
        reps = ProofBundle.from_bytes(bundle.to_bytes()).proof.repetitions
        assert len(reps) == 3
        views = {}
        shared = 0
        for rp in reps:
            p = rp.pcs_proof
            assert p.message is None
            for idx, col in zip(p.merkle.indices, p.columns, strict=True):
                assert not col.flags.writeable
                if idx in views:
                    assert np.shares_memory(col, views[idx])
                    shared += 1
                views.setdefault(idx, col)
        assert shared and len(views) == len(_opened(bundle.proof)[0])

    def test_each_message_once(self):
        """litmus's three openings are each its 4-column message: the
        payload carries the message once, and the decoded repetitions
        share it, read-only, with nothing else."""
        _, bundle = _seed7("litmus", PAPER.name)
        reps = ProofBundle.from_bytes(bundle.to_bytes()).proof.repetitions
        message = reps[0].pcs_proof.message
        assert message.shape == (129, 4) and not message.flags.writeable
        assert np.array_equal(message,
                              bundle.proof.repetitions[0].pcs_proof.message)
        for rp in reps:
            assert rp.pcs_proof.message is message
            assert rp.pcs_proof.disclosed()

    @pytest.mark.parametrize("name,preset,mode", [
        ("sha", PAPER.name, "rows"),
        ("synthetic-2p16", PAPER.name, "columns"),
        ("synthetic-2p8", TEST.name, "rows"),
        ("synthetic-2p10", TEST.name, "columns")])
    def test_mode_follows_the_geometry(self, name, preset, mode):
        """One preset, both modes: rows mode iff the message width C is no
        more than the preset's query count — PAPER's 189 cover ``sha``'s
        64 columns and not 2^16's 256, TEST's 24 cover 2^8's 16 and not
        2^10's 32."""
        vk, bundle = _seed7(name, preset)
        queries = preset_by_name(preset).column_queries
        com = bundle.proof.witness_commitment
        assert rows_mode(com.num_cols, queries) == (mode == "rows")
        for rp in bundle.proof.repetitions:
            assert rp.pcs_proof.disclosed() == (mode == "rows")
        decoded = ProofBundle.from_bytes(bundle.to_bytes())
        for rp in decoded.proof.repetitions:
            assert rp.pcs_proof.disclosed() == (mode == "rows")
        assert _object_digest(decoded.proof) == _object_digest(bundle.proof)
        assert verify(vk, decoded)


def _opened(proof):
    """``opened_columns`` of a columns-mode proof's openings."""
    return opened_columns([rp.pcs_proof for rp in proof.repetitions],
                          proof.witness_commitment.num_rows)


def _message(proof):
    """``shared_message`` of a rows-mode proof's openings."""
    c = proof.witness_commitment
    return shared_message([rp.pcs_proof for rp in proof.repetitions],
                          c.num_rows, c.num_cols)


def _table_at(proof, data):
    """Offsets of the column table's parts at the end of ``data`` (the
    payload of ``proof``): its count, height, bitmap and value block,
    and the table itself, ``(count, height)``."""
    import types

    table = _opened(proof)[1]
    n, h = table.shape
    values = len(data) - 8 * n * int(table.any(axis=0).sum())
    bitmap = values - (h + 7) // 8
    at = types.SimpleNamespace(count=bitmap - 8, height=bitmap - 4,
                               bitmap=bitmap, values=values, table=table,
                               zero=~table.any(axis=0))
    assert int.from_bytes(data[at.count:at.height], "little") == n
    assert int.from_bytes(data[at.height:bitmap], "little") == h
    return at


def _rows_at(proof, data):
    """Offsets of the rows block's parts at the end of ``data`` (the
    payload of a rows-mode ``proof``): its height, bitmap and value
    block, and the message itself, ``(height, num_cols)``."""
    import types

    message = _message(proof)
    h, c = message.shape
    zero = ~message.any(axis=1)
    values = len(data) - 8 * c * int((~zero).sum())
    bitmap = values - (h + 7) // 8
    assert int.from_bytes(data[bitmap - 4:bitmap], "little") == h
    return types.SimpleNamespace(height=bitmap - 4, bitmap=bitmap,
                                 values=values, message=message, zero=zero)


def _rows_relaid(data, at, zero, height=None):
    """``data`` with its rows block laid out again over the bitmap
    ``zero`` and, if given, another height field."""
    h = len(at.message) if height is None else height
    return (data[:at.height] + h.to_bytes(4, "little")
            + np.packbits(zero, bitorder="little").tobytes()
            + at.message[~zero].astype("<u8").tobytes())


def _relaid(data, at, zero, height=None):
    """``data`` with its column table laid out again over the bitmap
    ``zero`` (rows marked zero are left out, whatever they hold) and,
    if given, another height field."""
    h = at.table.shape[1] if height is None else height
    return (data[:at.height] + h.to_bytes(4, "little")
            + np.packbits(zero, bitorder="little").tobytes()
            + at.table[:, ~zero].astype("<u8").tobytes())


class TestColumnTable:
    """The strict reader over the column table — one error, at its
    offset, per rule the canonical encoding keeps — and the writer's
    refusal of a proof the table cannot carry."""

    @staticmethod
    def _payload():
        """TEST ``sha`` payload (512 columns, more than 24 queries: 24
        columns of 17 rows, rows 9-15 zero in every column) and its
        table's offsets."""
        _, bundle = _seed7("sha", TEST.name)
        data = proof_to_bytes(bundle.proof, column_queries=TEST.column_queries)
        return bundle, data, _table_at(bundle.proof, data)

    def test_truncated_table(self):
        """A value block one element short."""
        _, data, at = self._payload()
        with pytest.raises(DeserializationError, match="truncated") as ei:
            proof_from_bytes(data[:-8])
        assert ei.value.offset == at.values

    def test_trailing_bytes(self):
        """A value block one element long."""
        _, data, _ = self._payload()
        with pytest.raises(DeserializationError, match="trailing") as ei:
            proof_from_bytes(data + b"\x01" * 8)
        assert ei.value.offset == len(data)

    def test_height_outside_the_geometry(self):
        bundle, data, at = self._payload()
        rows = bundle.proof.witness_commitment.num_rows
        for h in (0, rows - 1, rows + 2):
            buf = bytearray(data)
            buf[at.height:at.bitmap] = h.to_bytes(4, "little")
            with pytest.raises(DeserializationError, match="height") as ei:
                proof_from_bytes(bytes(buf))
            assert ei.value.offset == at.height

    def test_column_of_the_other_allowed_height(self):
        """A table laid out at ``num_rows`` (the mask row cut from every
        column) parses — the reader allows both heights — and the
        verifier, whose preset masks, refuses it."""
        bundle, data, at = self._payload()
        rows = bundle.proof.witness_commitment.num_rows
        assert at.table.shape[1] == rows + 1    # the zk mask row is on
        at.table = at.table[:, :rows]
        cut = _relaid(data, at, ~at.table.any(axis=0), height=rows)
        proof = proof_from_bytes(cut)
        assert len(proof.repetitions[0].pcs_proof.columns[0]) == rows
        vk, _ = _seed7("sha", TEST.name)
        assert not verify(vk, ProofBundle(proof=proof, public=bundle.public,
                                          preset_name=TEST.name))

    def test_set_padding_bit(self):
        """17 rows leave 7 padding bits in the bitmap's last byte."""
        _, data, at = self._payload()
        buf = bytearray(data)
        buf[at.values - 1] |= 0x80
        with pytest.raises(DeserializationError, match="padding") as ei:
            proof_from_bytes(bytes(buf))
        assert ei.value.offset == at.values - 1

    def test_unset_zero_row(self):
        """Row 9 is zero in every column; sent as 24 zeros with its bit
        clear, it is a second encoding of the same proof."""
        _, data, at = self._payload()
        zero = ~at.table.any(axis=0)
        assert zero[9]
        zero[9] = False
        with pytest.raises(DeserializationError,
                           match="row 9 is zero in every column") as ei:
            proof_from_bytes(_relaid(data, at, zero))
        assert ei.value.offset == at.bitmap + 1

    def test_set_live_row(self):
        """A live row marked zero (and left out) is a well-formed table
        of other columns: it parses, and the Merkle check refuses it."""
        bundle, data, at = self._payload()
        zero = ~at.table.any(axis=0)
        assert not zero[0]
        zero[0] = True
        proof = proof_from_bytes(_relaid(data, at, zero))
        vk, _ = _seed7("sha", TEST.name)
        assert not verify(vk, ProofBundle(proof=proof, public=bundle.public,
                                          preset_name=TEST.name))

    def test_non_canonical_element(self):
        _, data, at = self._payload()
        pos = at.values + 8 * 5
        buf = bytearray(data)
        buf[pos:pos + 8] = MODULUS.to_bytes(8, "little")
        with pytest.raises(DeserializationError,
                           match="non-canonical") as ei:
            proof_from_bytes(bytes(buf))
        assert ei.value.offset == pos

    def test_count_other_than_the_union(self):
        _, data, at = self._payload()
        buf = bytearray(data)
        buf[at.count:at.height] = (23).to_bytes(4, "little")
        with pytest.raises(DeserializationError, match="24 distinct") as ei:
            proof_from_bytes(bytes(buf))
        assert ei.value.offset == at.height

    def test_writer_refuses_disagreeing_repetitions(self):
        """A proof the table cannot carry has no bytes and so no size:
        the labelled bundle's ``size_bytes()`` raises ``to_bytes``'s
        ``ValueError``, whatever the repetitions disagree on."""
        import copy

        _, bundle = _seed7("synthetic-2p16", PAPER.name)

        def refused(edit, match):
            proof = copy.deepcopy(bundle.proof)
            edit(proof.repetitions)
            with pytest.raises(ValueError, match=match) as sent:
                proof_to_bytes(proof)
            labelled = dataclasses.replace(bundle, proof=proof, report=None)
            for write in (labelled.to_bytes, labelled.size_bytes):
                with pytest.raises(ValueError) as raised:
                    write()
                assert str(raised.value) == str(sent.value)

        def repeated(reps, j):
            """Where repetition j's columns hold one an earlier one opens."""
            earlier = set().union(*(rp.pcs_proof.merkle.indices
                                    for rp in reps[:j]))
            return next(k for k, idx in enumerate(reps[j].pcs_proof.merkle
                                                  .indices) if idx in earlier)

        def bump(reps):
            k = repeated(reps, 1)
            col = reps[1].pcs_proof.columns[k].copy()
            col[0] = (int(col[0]) + 1) % MODULUS
            reps[1].pcs_proof.columns[k] = col

        def cut(reps):           # a repeated column of another length
            k = repeated(reps, 2)
            reps[2].pcs_proof.columns[k] = reps[2].pcs_proof.columns[k][:-1]

        refused(bump, "opening 1 opens a column at index .* other values")
        refused(lambda reps: reps[2].pcs_proof.columns.pop(),
                r"opening 2 opens \d+ columns for \d+ distinct query indices")
        refused(cut, "opening 2 opens no column of 129 canonical elements "
                     "at index")


class TestRowsBlock:
    """The strict reader over the rows block — one error, at its offset,
    per rule the canonical encoding keeps — and the writer's refusal of a
    proof whose openings contradict the mode rule or disagree on the
    message."""

    @staticmethod
    def _payload():
        """PAPER litmus payload (a 129 x 4 message, 65 of its rows zero,
        row 3 among them) and its rows block's offsets."""
        _, bundle = _seed7("litmus", PAPER.name)
        data = proof_to_bytes(bundle.proof)
        return bundle, data, _rows_at(bundle.proof, data)

    def test_round_trip(self):
        bundle, data, at = self._payload()
        assert at.message.shape == (129, 4) and int(at.zero.sum()) == 65
        assert at.values == len(data) - 8 * 4 * 64
        decoded = proof_from_bytes(data)
        assert np.array_equal(decoded.repetitions[0].pcs_proof.message,
                              at.message)
        assert proof_to_bytes(decoded) == data
        assert _rows_relaid(data, at, at.zero) == data

    def test_truncated_block(self):
        _, data, at = self._payload()
        for cut, offset in ((len(data) - 8, at.values),
                            (at.values - 1, at.bitmap),
                            (at.height + 2, at.height)):
            with pytest.raises(DeserializationError,
                               match="truncated") as ei:
                proof_from_bytes(data[:cut])
            assert ei.value.offset == offset

    def test_trailing_bytes(self):
        _, data, _ = self._payload()
        with pytest.raises(DeserializationError, match="trailing") as ei:
            proof_from_bytes(data + b"\x01" * 8)
        assert ei.value.offset == len(data)

    def test_height_outside_the_geometry(self):
        bundle, data, at = self._payload()
        rows = bundle.proof.witness_commitment.num_rows
        for h in (0, rows - 1, rows + 2):
            buf = bytearray(data)
            buf[at.height:at.bitmap] = h.to_bytes(4, "little")
            with pytest.raises(DeserializationError,
                               match="message height") as ei:
                proof_from_bytes(bytes(buf))
            assert ei.value.offset == at.height

    def test_message_of_the_other_allowed_height(self):
        """A block laid out at ``num_rows`` (the mask row cut) parses, and
        the verifier, whose preset masks, refuses it."""
        bundle, data, at = self._payload()
        rows = bundle.proof.witness_commitment.num_rows
        at.message = at.message[:rows]
        proof = proof_from_bytes(
            _rows_relaid(data, at, at.zero[:rows], height=rows))
        assert proof.repetitions[0].pcs_proof.message.shape == (rows, 4)
        vk, _ = _seed7("litmus", PAPER.name)
        assert not verify(vk, ProofBundle(proof=proof, public=bundle.public,
                                          preset_name=PAPER.name))

    def test_set_padding_bit(self):
        _, data, at = self._payload()
        buf = bytearray(data)
        buf[at.values - 1] |= 0x80
        with pytest.raises(DeserializationError, match="padding") as ei:
            proof_from_bytes(bytes(buf))
        assert ei.value.offset == at.values - 1

    def test_unset_zero_row(self):
        _, data, at = self._payload()
        zero = at.zero.copy()
        assert zero[3]
        zero[3] = False
        with pytest.raises(DeserializationError,
                           match="message row 3 is zero") as ei:
            proof_from_bytes(_rows_relaid(data, at, zero))
        assert ei.value.offset == at.bitmap

    def test_set_live_row(self):
        """A live row marked zero (and left out) is a well-formed block of
        another message: it parses, and the Merkle check refuses it."""
        bundle, data, at = self._payload()
        zero = at.zero.copy()
        assert not zero[0]
        zero[0] = True
        proof = proof_from_bytes(_rows_relaid(data, at, zero))
        vk, _ = _seed7("litmus", PAPER.name)
        assert not verify(vk, ProofBundle(proof=proof, public=bundle.public,
                                          preset_name=PAPER.name))

    def test_non_canonical_element(self):
        _, data, at = self._payload()
        pos = at.values + 8 * 5
        buf = bytearray(data)
        buf[pos:pos + 8] = MODULUS.to_bytes(8, "little")
        with pytest.raises(DeserializationError,
                           match="non-canonical element in message") as ei:
            proof_from_bytes(bytes(buf))
        assert ei.value.offset == pos

    def test_block_beyond_the_cell_cap_refused_before_allocating(self):
        from repro.snark.serialize import MAX_TABLE_CELLS, _Reader

        assert 4097 * 4096 > MAX_TABLE_CELLS
        r = _Reader((4096).to_bytes(4, "little"))
        with pytest.raises(DeserializationError, match="exceeds cap") as ei:
            r.rows(4097, (4096,))
        assert ei.value.offset == 0

    def test_writer_refuses_a_contradicting_proof(self):
        """A proof the payload cannot carry has no bytes and so no size:
        a repetition carrying another message, a PCS part beside the
        message, no message where the rows block goes, a message where
        the column table goes, a message of the wrong width, and a
        rows-mode proof of no repetitions."""
        import copy

        _, rows_bundle = _seed7("litmus", PAPER.name)
        _, cols_bundle = _seed7("synthetic-2p16", PAPER.name)

        def refused(bundle, edit, match):
            proof = copy.deepcopy(bundle.proof)
            edit([rp.pcs_proof for rp in proof.repetitions])
            with pytest.raises(ValueError, match=match) as sent:
                proof_to_bytes(proof)
            labelled = dataclasses.replace(bundle, proof=proof, report=None)
            with pytest.raises(ValueError) as raised:
                labelled.size_bytes()
            assert str(raised.value) == str(sent.value)

        def other(pcs):
            message = np.array(pcs[0].message)
            message[0, 0] = (int(message[0, 0]) + 1) % MODULUS
            pcs[2].message = message

        def columns(pcs):
            pcs[1].columns = [np.zeros(129, np.uint64)]

        def eval_row(pcs):
            pcs[1].eval_row = np.asarray(pcs[1].message[0])

        def drop(pcs):
            pcs[0].message = None

        def stray(pcs):
            pcs[1].message = np.zeros((129, 256), np.uint64)

        def widen(pcs):
            wide = np.hstack([pcs[0].message, pcs[0].message])
            for p in pcs:
                p.message = wide

        def none(pcs):
            pcs.clear()

        refused(rows_bundle, other,
                "opening 2 carries another message than opening 0")
        for part in (columns, eval_row):
            refused(rows_bundle, part,
                    "opening 1 carries a message and a PCS part, but a "
                    "rows-mode opening is the message alone")
        refused(rows_bundle, drop,
                "opening 0 carries no message, but a rows-mode opening")
        refused(cols_bundle, stray,
                "opening 1 carries a message, but a columns-mode opening")
        refused(rows_bundle, widen,
                r"opening 0 carries no \(128 or 129\) x 4 message")
        with pytest.raises(ValueError, match="no openings"):
            proof = copy.deepcopy(rows_bundle.proof)
            proof.repetitions = []
            proof_to_bytes(proof)


@functools.lru_cache(maxsize=None)
def _captured(name, preset):
    """``(vk, bundle, commitment, [(point, value, transcript)])`` of the
    seed-7 proof: the openings the Spartan verifier checks."""
    vk, bundle = _seed7(name, preset)
    verifier = vk.verifier()
    seen = []
    real = verifier.pcs.verify_openings

    def capture(commitment, openings):
        seen.append((commitment, [(pt, v, copy.copy(tr))
                                  for pt, v, _p, tr in openings]))
        return real(commitment, openings)

    verifier.pcs.verify_openings = capture
    assert verifier.verify(bundle.public, bundle.proof)
    (commitment, openings), = seen
    return vk, bundle, commitment, openings


def _retabled(pcs, edit):
    """Every opening's columns re-pointed at one table (index -> column)
    that ``edit`` changed, so openings of one index share the object."""
    table = {}
    for p in pcs:
        table.update(zip(p.merkle.indices, p.columns))
    edit(table)
    for p in pcs:
        p.columns = [table[i] for i in p.merkle.indices]


def _shared_column(pcs, j):
    """Where opening j's columns hold an index an earlier one opens."""
    earlier = set().union(*(p.merkle.indices for p in pcs[:j]))
    return next(k for k, idx in enumerate(pcs[j].merkle.indices)
                if idx in earlier)


def _bump_shared_column(pcs):
    k = _shared_column(pcs, 1)
    col = np.array(pcs[1].columns[k])
    col[0] = (int(col[0]) + 1) % MODULUS
    pcs[1].columns[k] = col


def _listed_shared_column(pcs):
    k = _shared_column(pcs, 1)
    pcs[1].columns[k] = pcs[1].columns[k].tolist()


def _cut_shared_column(pcs):
    k = _shared_column(pcs, 2)
    pcs[2].columns[k] = pcs[2].columns[k][:-1]


def _noncanonical_column(table):
    idx = min(table)
    table[idx] = np.array(table[idx])
    table[idx][0] = MODULUS


def _third_height(table):
    for idx, col in table.items():
        table[idx] = np.append(col, np.uint64(0))


def _bumped_message(message):
    other = np.array(message)
    other[0, 0] = (int(other[0, 0]) + 1) % MODULUS
    return other


def _set(j, **fields):
    """An edit that sets opening j's ``fields`` (values or functions of
    the opening)."""
    def edit(pcs):
        for key, value in fields.items():
            setattr(pcs[j], key, value(pcs[j]) if callable(value) else value)
    return edit


class TestWriterAgreesWithTheVerifier:
    """What the openings share has one owner (``opened_columns`` and
    ``shared_message``): the writer refuses exactly the object-level
    openings ``verify_openings`` rejects, naming the first opening at
    fault, and writes the honest bytes for exactly those it accepts.
    Each case edits the seed-7 PAPER openings of ``synthetic-2p16``
    (columns mode) or ``litmus`` (rows mode)."""

    #: case -> (circuit, edit of the openings, the opening at fault or
    #: None where both accept).
    CASES = {
        "honest columns": ("synthetic-2p16", lambda pcs: None, None),
        "equal copy of a shared column": (
            "synthetic-2p16", _listed_shared_column, None),
        "unequal column at a shared index": (
            "synthetic-2p16", _bump_shared_column, 1),
        "dropped column": (
            "synthetic-2p16", lambda pcs: pcs[2].columns.pop(), 2),
        "repeated column of another length": (
            "synthetic-2p16", _cut_shared_column, 2),
        "non-canonical opened value": (
            "synthetic-2p16",
            lambda pcs: _retabled(pcs, _noncanonical_column), 0),
        "column of a third height": (
            "synthetic-2p16", lambda pcs: _retabled(pcs, _third_height), 0),
        "honest message": ("litmus", lambda pcs: None, None),
        "equal copy of the message": (
            "litmus", _set(2, message=lambda p: p.message.tolist()), None),
        "unequal messages": (
            "litmus", _set(2, message=lambda p: _bumped_message(p.message)),
            2),
        "message plus a PCS part": (
            "litmus", _set(1, eval_row=lambda p: np.array(p.message[0])), 1),
        "no message where the rule says rows mode": (
            "litmus", _set(0, message=None), 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_writer_refuses_what_the_verifier_rejects(self, case):
        name, edit, at_fault = self.CASES[case]
        vk, bundle, com, captured = _captured(name, PAPER.name)
        proof = copy.deepcopy(bundle.proof)
        pcs = [rp.pcs_proof for rp in proof.repetitions]
        edit(pcs)
        accepted = vk.verifier().pcs.verify_openings(com, [
            (pt, v, p, copy.copy(tr))
            for (pt, v, tr), p in zip(captured, pcs, strict=True)])
        assert accepted is (at_fault is None)
        labelled = dataclasses.replace(bundle, proof=proof, report=None)
        if accepted:
            assert labelled.to_bytes() == bundle.to_bytes()
        else:
            with pytest.raises(ValueError, match=f"^opening {at_fault} "):
                labelled.to_bytes()


def _normalized_paths(spans):
    """The (path, kind) list of ``spans`` with repetition and proximity
    row numbers generalised (``rep[k]``, ``prox[i]``), each once, in
    wire order: the rows of PROTOCOL.md's span table."""
    import re

    out = []
    for s in spans:
        path = re.sub(r"rep\[\d+\]", "rep[k]", s.path)
        row = (re.sub(r"prox\[\d+\]", "prox[i]", path), s.kind)
        if row not in out:
            out.append(row)
    return out


class TestLayout:
    """The reader is the layout map: the spans it records tile every
    envelope exactly, survive a decode and re-encode, match the span
    table in docs/PROTOCOL.md §6b, and every span kind of each
    repetition gets a generated mutant."""

    CASES = ([(name, preset) for preset in (TEST.name, PAPER.name)
              for name in REGISTRY_NAMES]
             + [("synthetic-2p10", TEST.name),
                ("synthetic-2p16", PAPER.name)])

    @pytest.mark.parametrize("name,preset", CASES)
    def test_spans_tile_the_envelope(self, name, preset):
        from repro.snark.envelope import (bundle_from_bytes, bundle_to_bytes,
                                          layout)
        from repro.snark.serialize import SPAN_KINDS, proof_layout

        _, bundle = _seed7(name, preset)
        data = bundle.to_bytes()
        spans = layout(data)
        assert [s.offset for s in spans] == \
            [0] + [s.end for s in spans[:-1]]
        assert spans[-1].end == len(data)
        assert {s.kind for s in spans} <= set(SPAN_KINDS)
        assert layout(bundle_to_bytes(bundle_from_bytes(data))) == spans
        # The payload's spans are proof_layout's, moved by its offset.
        start = next(s.end for s in spans
                     if s.path == "envelope.payload.count")
        payload = [s._replace(offset=s.offset - start) for s in spans
                   if s.offset >= start]
        assert proof_layout(data[start:], column_queries=preset_by_name(
            preset).column_queries) == payload

    def test_protocol_doc_span_table(self):
        """PROTOCOL.md §6b's table lists the path list of a real payload
        in each mode: PAPER ``litmus`` (rows) and TEST 2^10 (columns)."""
        import pathlib
        import re

        from repro.snark.serialize import proof_layout

        doc = (pathlib.Path(__file__).resolve().parent.parent / "docs"
               / "PROTOCOL.md").read_text()
        section = doc[doc.index("## 6b."):doc.index("## 7.")]
        table = re.findall(r"^\| `([^`]+)` \| (\w+) \| (\w+) \|", section,
                           re.MULTILINE)
        for name, preset, mode in (("litmus", PAPER, "rows"),
                                   ("synthetic-2p10", TEST, "columns")):
            _, bundle = _seed7(name, preset.name)
            spans = proof_layout(proof_to_bytes(
                bundle.proof, column_queries=preset.column_queries),
                column_queries=preset.column_queries)
            assert _normalized_paths(spans) == [
                (path, kind) for path, kind, rows in table
                if rows in ("both", mode)]

    @pytest.mark.parametrize("name,preset", [
        ("litmus", PAPER.name), ("synthetic-2p16", PAPER.name)])
    def test_every_span_kind_of_every_repetition_is_mutated(self, name,
                                                            preset):
        """Rows mode and columns mode, three repetitions each: a generated
        edit lands in every (span kind, repetition) the layout holds, an
        in-place edit changes no byte outside its span, and the verifier
        refuses every mutant."""
        import random

        from repro.errors import ReproError
        from repro.fuzz.mutate import structured_mutants
        from repro.snark.envelope import layout

        vk, bundle = _seed7(name, preset)
        data = bundle.to_bytes()
        spans = {s.path: s for s in layout(data)}

        def where(path):
            return spans[path].kind, path.split(".")[0] if \
                path.startswith("rep[") else None

        mutants = structured_mutants(data, random.Random(5))
        edited = [m for m in mutants if m.span is not None]
        assert {where(p) for p in spans} <= {where(m.span) for m in edited}
        for m in edited:
            if len(m.data) == len(data):
                s = spans[m.span]
                assert m.data[:s.offset] == data[:s.offset], m.mutator
                assert m.data[s.end:] == data[s.end:], m.mutator
        for m in mutants:
            try:
                parsed = ProofBundle.from_bytes(m.data)
            except ReproError:
                continue
            assert not verify(vk, parsed), (m.mutator, m.span)


class TestModeFollowsThePreset:
    """The mode is no flag: the reader reads it off the preset the
    envelope names.  A payload laid out in the other mode — a PCS part
    in every repetition where the rule says rows mode, none where it
    says columns mode — is refused where the layouts part, and a
    payload relabelled with the other preset fails to parse (its mode
    flips) or is refused as a preset mismatch."""

    @pytest.mark.parametrize("name,preset", [
        ("litmus", PAPER.name), ("synthetic-2p10", TEST.name)])
    def test_payload_in_the_other_mode_refused(self, name, preset):
        from repro.fuzz.mutate import mutate_mode_mismatch

        _, bundle = _seed7(name, preset)
        mutant, = mutate_mode_mismatch(bundle.to_bytes(), None)
        with pytest.raises(DeserializationError) as ei:
            ProofBundle.from_bytes(mutant.data)
        # the layouts part after a repetition's sumcheck part, past the
        # payload's 57-byte header
        assert ei.value.offset > 57

    @pytest.mark.parametrize("name,parses", [("sha", False),
                                             ("litmus", True)])
    def test_relabelled_preset(self, name, parses):
        """PAPER ``sha`` (64 columns) is in columns mode under TEST's 24
        queries, so it does not parse; ``litmus`` (4 columns) is in rows
        mode under both, so it parses and the TEST key refuses it."""
        from repro.fuzz.mutate import mutate_preset_relabel

        _, bundle = _seed7(name, PAPER.name)
        mutant, = mutate_preset_relabel(bundle.to_bytes(), None)
        if not parses:
            with pytest.raises(DeserializationError):
                ProofBundle.from_bytes(mutant.data)
            return
        relabelled = ProofBundle.from_bytes(mutant.data)
        assert relabelled.preset_name == TEST.name
        vk, _ = _seed7(name, TEST.name)
        assert not verify(vk, relabelled)


class TestRowsModeDifferential:
    """A rows-mode opening is accepted only if its message is the
    committed one (the rebuilt root binds it), so its acceptance set is
    within the columns mode's: a single-value edit of the message (the
    mask row's included) gets the verdict a columns-mode verifier gives
    the columns-mode openings of the edited message at the same points
    and transcripts — both refuse, as the rebuilt root moves — and the
    unedited message is accepted either way (docs/PROTOCOL.md, §6b)."""

    @classmethod
    def _verdicts(cls, name, preset, row, col, delta):
        from repro.code import ReedSolomonCode
        from repro.hashing.merkle import MerkleTree
        from repro.pcs.orion import OrionPCS, _ProverState

        vk, bundle, com, openings = _captured(name, preset)
        proof = copy.deepcopy(bundle.proof)
        message = np.array(proof.repetitions[0].pcs_proof.message)
        r, c = row % len(message), col % message.shape[1]
        message[r, c] = (int(message[r, c]) + delta) % MODULUS
        for rp in proof.repetitions:
            rp.pcs_proof.message = message
        as_rows = verify(vk, dataclasses.replace(bundle, proof=proof,
                                                 report=None))
        # The same openings in columns mode: C - 1 queries, the edited
        # message committed, opened at the captured points.
        params = vk.preset.make_pcs().params
        pcs = OrionPCS(code=ReedSolomonCode(num_queries=com.num_cols - 1),
                       params=params)
        codewords = pcs.code.encode_rows(message)
        state = _ProverState(message[:com.num_rows], message[com.num_rows],
                             codewords, MerkleTree.from_columns(codewords))
        as_columns = pcs.verify_openings(com, [
            (pt, v, pcs.open(state, com, pt, copy.copy(tr)), copy.copy(tr))
            for pt, v, tr in openings])
        return as_rows, as_columns

    @pytest.mark.parametrize("name,preset", [
        ("synthetic-2p8", TEST.name), ("litmus", PAPER.name),
        ("sha", PAPER.name)])
    def test_message_edits_match_the_columns_verdict(self, name, preset):
        from hypothesis import given, settings, strategies as st

        vk, bundle = _seed7(name, preset)
        assert bundle.proof.repetitions[0].pcs_proof.disclosed()
        assert self._verdicts(name, preset, 0, 0, 0) == (True, True)
        # the mask row is the message's last
        assert self._verdicts(name, preset, -1, 0, 1) == (False, False)

        @settings(max_examples=12, deadline=None)
        @given(st.integers(0, 1 << 16), st.integers(0, 1 << 16),
               st.integers(1, MODULUS - 1))
        def edit(row, col, delta):
            assert self._verdicts(name, preset, row, col, delta) == (
                False, False)

        edit()


def _zero_circuit():
    """``w * w == out`` at w = 0: the whole witness is zero."""
    c = Circuit()
    o = c.public(0)
    w = c.witness(0)
    c.assert_equal(c.mul(w, w), o)
    return c.compile()


class TestZeroRows:
    """Rows zero in every opened column (or message row, in rows mode)
    stay off the wire, and every decoded object is the proved one:
    interior zero rows, a witness of zeros (only the mask row travels,
    or nothing without one), a block of ``num_rows`` rows, and the TEST
    preset."""

    @staticmethod
    def _round_trip(proof, preset=PAPER):
        """Encode and decode ``proof`` (made under ``preset``): the
        objects come back equal.  Returns the payload's column table or
        rows block (``zero`` marks the rows left out)."""
        queries = preset.column_queries
        data = proof_to_bytes(proof, column_queries=queries)
        decoded = proof_from_bytes(data, column_queries=queries)
        assert _object_digest(decoded) == _object_digest(proof)
        assert proof_to_bytes(decoded, column_queries=queries) == data
        if not rows_mode(proof.witness_commitment.num_cols, queries):
            return _table_at(proof, data)
        return _rows_at(proof, data)

    def test_litmus_interior_zero_rows(self):
        vk, bundle = _seed7("litmus", PAPER.name)
        at = self._round_trip(bundle.proof)
        zero = at.zero
        assert int(zero.sum()) == 65
        assert zero[3] and not zero[4]          # a zero row between live ones
        assert bundle.size_bytes() == len(bundle.to_bytes())
        assert verify(vk, ProofBundle.from_bytes(bundle.to_bytes()))

    @pytest.mark.parametrize("preset", [PAPER, TEST])
    def test_zero_witness_sends_the_mask_row_alone(self, preset):
        r1cs, public, witness = _zero_circuit()
        assert not witness.any()
        pk, vk = setup(r1cs, preset)
        bundle = prove(pk, public, witness, seed=7)
        at = self._round_trip(bundle.proof, preset)
        rows = bundle.proof.witness_commitment.num_rows
        assert np.flatnonzero(~at.zero).tolist() == [rows]
        assert bundle.size_bytes() == len(bundle.to_bytes())
        assert verify(vk, ProofBundle.from_bytes(bundle.to_bytes()))

    def test_unmasked_table_of_num_rows(self):
        """Without the mask row the height is ``num_rows``; a zero
        witness then leaves every row zero and the value block empty."""
        from repro.pcs.orion import OrionPCS, PCSParams
        from repro.spartan.protocol import (SpartanParams, SpartanProver,
                                            SpartanVerifier)
        from repro.workloads.registry import build_workload

        def pcs():
            return OrionPCS(params=PCSParams(zk_mask=False),
                            rng=np.random.default_rng(1))

        params = SpartanParams(repetitions=1)
        for r1cs, public, witness in (
                build_workload("litmus")[1].compile(), _zero_circuit()):
            proof = SpartanProver(r1cs, pcs(), params).prove(public, witness)
            at = self._round_trip(proof)
            rows = proof.witness_commitment.num_rows
            assert len(at.zero) == rows
            assert SpartanVerifier(r1cs, pcs(), params).verify(
                public, proof_from_bytes(proof_to_bytes(proof)))
        assert at.zero.all() and at.values == len(proof_to_bytes(proof))

    @pytest.mark.parametrize("name", ["litmus", "sha"])
    def test_test_preset(self, name):
        vk, bundle = _seed7(name, TEST.name)
        self._round_trip(bundle.proof, TEST)
        assert bundle.size_bytes() == len(bundle.to_bytes())
        assert verify(vk, ProofBundle.from_bytes(bundle.to_bytes()))


class TestVerifierHashesEachColumnOnce:
    """The verifier checks a proof's three openings as one batch.  A
    rows-mode batch is one message, so it leaf-hashes each column of
    Enc(M) once to rebuild the root: all 256 of ``sha``'s codeword
    columns, all 16 of ``litmus``'s.  (With the opened columns checked
    against multiproofs it hashed the union of the repetitions' distinct
    queries, 251 for ``sha``, and per opening 567.)"""

    @pytest.mark.parametrize("name,distinct", [("sha", 256), ("litmus", 16)])
    def test_leaf_hashes_per_verify(self, name, distinct, monkeypatch):
        from repro.hashing.fieldhash import LEAF_TAG

        vk, bundle = _seed7(name, PAPER.name)
        decoded = ProofBundle.from_bytes(bundle.to_bytes())
        assert 4 * decoded.proof.witness_commitment.num_cols == distinct
        leaves = []
        real = hashlib.sha3_256

        def counting(data=b"", **kwargs):
            leaves.append(bytes(data[:len(LEAF_TAG)]) == LEAF_TAG)
            return real(data, **kwargs)

        monkeypatch.setattr(hashlib, "sha3_256", counting)
        for proof_bundle in (bundle, decoded):
            del leaves[:]
            assert verify(vk, proof_bundle)
            assert sum(leaves) == distinct


class TestWitnessIsNotHidden:
    """Today's proofs are a succinct argument, not zero-knowledge: the
    witness commitment masks only the proximity responses, so the opened
    codeword columns of ONE repetition of a PAPER proof determine the
    committed witness rows.  Each row is encoded as the degree-< C
    polynomial whose coefficients are the row, evaluated at w^j on the
    4C-point NTT domain, and C distinct opened columns pin it down.  When
    the query count reaches C the opening is the message matrix itself
    (rows mode), which is no more than C opened columns reveal: the
    committed rows in the clear, from which the verifier computes every
    column.  This pins the leak as it stands; a change that makes the
    proofs zero-knowledge must make these tests fail."""

    @staticmethod
    def _proof(name):
        """(committed witness matrix, first repetition's opening) of a
        seeded PAPER proof of registry ``name``."""
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload(name)
        r1cs, public, witness = circuit.compile()
        pk, _ = setup(r1cs, PAPER)
        proof = prove(pk, public, witness, seed=7,
                      circuit_id=circuit_id).proof
        com = proof.witness_commitment
        rows = r1cs.split_z(r1cs.assemble_z(public, witness))[1].reshape(
            com.num_rows, com.num_cols)
        return rows, proof.repetitions[0].pcs_proof

    @classmethod
    def _opened(cls, name):
        """(committed witness matrix, {codeword index: column}): the
        columns the first repetition's opening gives the verifier, every
        column of Enc(M)."""
        rows, pcs = cls._proof(name)
        codewords = PAPER.make_pcs().code.encode_rows(np.asarray(pcs.message))
        return rows, dict(enumerate(codewords.T))

    @pytest.mark.parametrize("name", ["litmus", "sha"])
    def test_rows_mode_ships_the_witness_rows(self, name):
        rows, pcs = self._proof(name)
        assert pcs.message is not None and rows.any()
        assert np.array_equal(pcs.message[:len(rows)], rows)

    def test_litmus_every_column_opened_one_inverse_ntt_per_row(self):
        from repro.ntt.radix2 import intt

        rows, opened = self._opened("litmus")
        num_rows, c = rows.shape
        assert c == 4 and sorted(opened) == list(range(4 * c))
        codewords = np.stack([opened[j] for j in range(4 * c)], axis=1)
        coeffs = intt(codewords)
        assert rows.any()
        assert np.array_equal(coeffs[:num_rows, :c], rows)
        assert not coeffs[:, c:].any()

    def test_sha_lagrange_from_c_opened_columns(self):
        from repro.field.goldilocks import MODULUS
        from repro.field.poly import interpolate
        from repro.ntt.roots import primitive_root

        rows, opened = self._opened("sha")
        c = rows.shape[1]
        assert c == 64 and len(opened) >= c
        omega = primitive_root(4 * c)
        picked = sorted(opened)[:c]
        xs = [pow(omega, j, MODULUS) for j in picked]
        for r in (0, 1, 31, 63, 64):      # rows 65.. are padding
            poly = interpolate(xs, [int(opened[j][r]) for j in picked])
            coeffs = list(poly.coeffs) + [0] * (c - len(poly.coeffs))
            assert any(rows[r])
            assert coeffs == [int(v) for v in rows[r]], r


def _hypercube_point(index, log_n):
    """The Boolean point of row ``index`` (variable 0 the top bit)."""
    return [(index >> (log_n - 1 - k)) & 1 for k in range(log_n)]


def _with_c_entries(r1cs, extra):
    """``r1cs`` with ``(row, col, value)`` entries added to C."""
    from repro.r1cs.matrices import SparseMatrix
    from repro.r1cs.system import R1CS

    n = r1cs.shape.num_constraints
    rows, cols, vals = zip(*(r1cs.c.entries()
                             + [(r, c, v % MODULUS) for r, c, v in extra]))
    c = SparseMatrix.from_arrays(n, n, list(rows), list(cols), list(vals))
    return R1CS(r1cs.a, r1cs.b, c, r1cs.shape.num_public,
                r1cs.shape.num_witness)


def _solve_mod_p(matrix, rhs):
    """x with matrix @ x == rhs over GF(p) (Gauss-Jordan, small systems)."""
    aug = [[int(v) % MODULUS for v in row] + [int(b) % MODULUS]
           for row, b in zip(matrix, rhs)]
    n = len(aug)
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], MODULUS - 2, MODULUS)
        aug[col] = [v * inv % MODULUS for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * w) % MODULUS
                          for v, w in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


class TestInstanceIsNotBound:
    """Fiat-Shamir absorbs the public inputs and the witness commitment,
    never A, B, C, so a prover who may pick the R1CS instance after the
    challenges proves a false statement.  Each forged instance gets a
    row that reads ``0 = 1`` (A and B rows empty, C row the constant
    column; ``public[0] == 1`` is part of the statement), so no witness
    satisfies it, and the verifier accepts anyway.  This pins the gap
    as it stands (docs/PROTOCOL.md, threat model); binding the instance
    into the transcript must make the accepting cases fail."""

    @staticmethod
    def _litmus():
        """(r1cs, public, witness, all-zero rows) of registry ``litmus``:
        559 of its 1,024 padded rows constrain nothing."""
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload("litmus")
        r1cs, public, witness = circuit.compile()
        empty = np.ones(r1cs.shape.num_constraints, dtype=bool)
        for m in (r1cs.a, r1cs.b, r1cs.c):
            for r, _c, _v in m.entries():
                empty[r] = False
        assert int(public[0]) == 1
        return circuit_id, r1cs, public, witness, np.flatnonzero(empty)

    @pytest.mark.parametrize("preset,accepted", [(TEST, True),
                                                 (PAPER, False)])
    def test_instance_chosen_after_tau(self, preset, accepted, monkeypatch):
        """Read tau of the first repetition, then add delta * (constant
        column) to an empty row i of C, delta = -eq(tau, u) / eq(tau, i),
        so the first sumcheck's claim sum_x eq(tau, x) (Az Bz - Cz)(x) = 0
        holds; every later step is honest proving of the forged instance
        (its satisfaction check bypassed here).  One repetition (TEST) is
        forged.  With PAPER's three it does not go through: the second
        repetition's tau is drawn after the first one's messages, which
        already depend on delta, so that sum is not 0 there."""
        from repro.hashing.transcript import Transcript
        from repro.multilinear.mle import eq_eval
        from repro.spartan import protocol

        _, r1cs, public, witness, empty = self._litmus()
        u, i = int(empty[-1]), int(empty[-2])
        log_n = r1cs.shape.log_size
        z = r1cs.assemble_z(public, witness)
        com, _ = preset.make_pcs(rng=np.random.default_rng(5)).commit(
            r1cs.split_z(z)[1])
        tr = Transcript()
        tr.absorb_array(b"spartan/public", np.asarray(public, dtype=np.uint64))
        tr.absorb_digest(b"spartan/witness-commitment", com.root)
        tau = tr.challenge_fields(b"spartan/rep0/tau", log_n)
        delta = (-eq_eval(tau, _hypercube_point(u, log_n))
                 * pow(eq_eval(tau, _hypercube_point(i, log_n)),
                       MODULUS - 2, MODULUS))
        forged = _with_c_entries(r1cs, [(u, 0, 1), (i, 0, delta)])
        assert not forged.is_satisfied(forged.assemble_z(public, witness))

        monkeypatch.setattr(protocol, "SatisfiedRound0",
                            lambda az, bz, cz: None)
        proof = protocol.SpartanProver(
            forged, preset.make_pcs(rng=np.random.default_rng(5)),
            preset.make_spartan_params()).prove(public, witness)
        assert proof.witness_commitment.root == com.root
        verifier = protocol.SpartanVerifier(forged, preset.make_pcs(),
                                            preset.make_spartan_params())
        assert verifier.verify(public, proof) is accepted

    def test_instance_chosen_after_every_challenge(self, monkeypatch):
        """The forgery that does go through under PAPER: an honest proof
        of ``litmus``, retargeted.  The verifier reads the instance only
        in each repetition's final check m = (r_a A~ + r_b B~ + r_c C~)(rx,
        ry), which is linear in the matrices.  Adding the ``0 = 1`` row at
        u plus constant-column entries d_j at three other empty rows, with
        d solving eq(rx_k, u) + sum_j d_j eq(rx_k, i_j) = 0 for the three
        repetitions k, leaves every m unchanged."""
        from repro.multilinear.mle import eq_eval
        from repro.spartan import protocol

        circuit_id, r1cs, public, witness, empty = self._litmus()
        log_n = r1cs.shape.log_size
        pk, vk = setup(r1cs, PAPER)
        bundle = prove(pk, public, witness, seed=7, circuit_id=circuit_id)
        points = []
        real = protocol.combined_matrix_eval

        def recording(a, b, c, r_a, r_b, r_c, rx, ry):
            points.append(list(rx))
            return real(a, b, c, r_a, r_b, r_c, rx, ry)

        monkeypatch.setattr(protocol, "combined_matrix_eval", recording)
        assert verify(vk, bundle)
        monkeypatch.setattr(protocol, "combined_matrix_eval", real)
        assert len(points) == PAPER.sumcheck_repetitions == 3

        u, others = int(empty[-1]), [int(r) for r in empty[-4:-1]]
        d = _solve_mod_p(
            [[eq_eval(rx, _hypercube_point(r, log_n)) for r in others]
             for rx in points],
            [-eq_eval(rx, _hypercube_point(u, log_n)) for rx in points])
        forged = _with_c_entries(
            r1cs, [(u, 0, 1)] + [(r, 0, dj) for r, dj in zip(others, d)])
        assert not forged.is_satisfied(forged.assemble_z(public, witness))
        _, forged_vk = setup(forged, PAPER)
        assert verify(forged_vk, ProofBundle.from_bytes(bundle.to_bytes()))


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


class TestCanonicalSurface:
    """The post-shim API contract: one import surface, no leftovers."""

    def test_top_level_reexports(self):
        import repro

        for name in ("setup", "prove", "prove_many", "verify",
                     "ProvingKey", "VerifyingKey", "ProofBundle",
                     "TEST", "PAPER", "ServiceClient"):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_deprecated_facade_removed(self):
        import repro
        import repro.snark

        for mod in (repro, repro.snark):
            assert not hasattr(mod, "Snark")
            assert not hasattr(mod, "prove_and_verify")
        # One failure contract: a batch raises its first unrecovered
        # error, so there is no per-job result type and no option.
        assert {name for name in repro.snark.__all__
                if isinstance(getattr(repro.snark, name), type)} == {
            "ProofBundle", "ProvingKey", "VerifyingKey", "SecurityPreset"}
        assert list(inspect.signature(repro.prove_many).parameters) == [
            "pk", "jobs", "workers", "base_seed", "circuit_id", "timeout_s"]

    def test_top_level_matches_snark(self):
        import repro
        import repro.snark

        assert repro.setup is repro.snark.setup
        assert repro.prove is repro.snark.prove
        assert repro.verify is repro.snark.verify
        assert repro.prove_many is repro.snark.prove_many

    def test_cold_import_loads_only_what_a_proof_runs(self):
        """``import repro`` and ``python -m repro serve --help`` load none
        of the modules a prove or verify never calls; afterwards every
        ``repro.__all__`` name, every subpackage and every name in a
        subpackage's ``__all__`` still resolves."""
        import json
        import os
        import subprocess
        import sys

        import repro

        script = f"""
import importlib, json, pkgutil, runpy, sys
forbidden = set({COLD_IMPORT_FORBIDDEN!r})
import repro
after_import = sorted(forbidden & set(sys.modules))
sys.argv = ["repro", "serve", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
after_help = sorted(forbidden & set(sys.modules))
missing = [n for n in repro.__all__ if getattr(repro, n, None) is None]
subs = [m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg]
for sub in subs:
    mod = importlib.import_module("repro." + sub)
    assert mod is getattr(repro, sub)
    missing += [sub + "." + n for n in getattr(mod, "__all__", ())
                if not hasattr(mod, n)]
print(json.dumps([after_import, after_help, missing, subs]))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        after_import, after_help, missing, subs = json.loads(
            out.stdout.splitlines()[-1])
        assert after_import == [] and after_help == []
        assert missing == []
        assert {"analysis", "nocap", "workloads", "service"} <= set(subs)


#: Modules no prove or verify calls: a cold ``import repro`` (and the
#: daemon's argument parsing) must not load them.
COLD_IMPORT_FORBIDDEN = (
    "repro.analysis", "repro.baselines", "repro.nocap",
    "repro.hashing.keccak", "repro.hashing.poseidon", "repro.pcs.fri",
    "repro.r1cs.bignum", "repro.r1cs.gadgets", "repro.r1cs.poseidon_gadget",
    "repro.spartan.memcheck",
    "repro.workloads.aes", "repro.workloads.sha", "repro.workloads.rsa",
    "repro.workloads.litmus", "repro.workloads.auction",
    "repro.workloads.spec",
    "repro.obs.export", "repro.service.server",
    "multiprocessing", "concurrent.futures",
)
