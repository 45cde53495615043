"""Tests for the keygen/prove/verify lifecycle, the proof envelope, and
the canonical top-level import surface."""

import functools
import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError, DeserializationError
from repro.field.goldilocks import MODULUS
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
        """Versions 1 (word-chain leaves), 2 (one transcript absorb per
        gamma coefficient) and 3 (opened columns once per repetition) are
        as foreign as version 99: their roots, challenges or layout do not
        parse or verify here, so they are refused at the version byte."""
        data = bytearray(bundle.to_bytes())
        assert data[4] == 4
        for version in (1, 2, 3, 99):
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

    The digests pin the NCPE v4 envelope (a format change regenerates them
    on purpose; v3 re-pinned them when ``Transcript.challenge_vector``
    became one absorb per vector — with the v2 derivation patched back in,
    the same code reproduced the v2 digests for every value of
    ``table.SCALAR_TAIL``; v4 re-pinned them when the repetitions' opened
    columns became one table, and the proof objects did not move:
    :class:`TestProofObjectsDidNotMove`).  Their only dependency outside
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
            "da177e2db3fc540712c6a3f6da0d297ea039d99568db7eb532917a689a9cd6a7")

    def test_synthetic_2p12(self):
        from repro.workloads import synthetic_r1cs

        assert self._digest(*synthetic_r1cs(12), "synthetic-2p12") == (
            "9cbaa598f46f659320bb88e87390d1c395b21980d8eac21f58971b0c2c4b24a6")

    def test_registry_aes(self):
        """The one registry circuit whose key stores repeated rows once
        (B's row map); recorded when every matrix was plain CSR."""
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload("aes")
        assert self._digest(*circuit.compile(), circuit_id) == (
            "2f44026a2e0e48c27cc865475e3a869bdf513552f705ff9513b7448c0316f1ab")


REGISTRY_NAMES = ("aes", "sha", "rsa", "litmus", "auction")


@functools.lru_cache(maxsize=None)
def _seed7(name, preset_name):
    """``(vk, bundle)`` of ``prove(..., seed=7)`` of registry ``name`` (or
    ``synthetic-2p12``) under a preset, built once per test session."""
    from repro.workloads import synthetic_r1cs
    from repro.workloads.registry import build_workload

    if name == "synthetic-2p12":
        circuit_id, compiled = name, synthetic_r1cs(12)
    else:
        circuit_id, circuit = build_workload(name)
        compiled = circuit.compile()
    r1cs, public, witness = compiled
    pk, vk = setup(r1cs, preset_by_name(preset_name))
    return vk, prove(pk, public, witness, seed=7, circuit_id=circuit_id)


def _object_digest(proof):
    """SHA-256 of a walk of the proof OBJECT, independent of any wire
    layout: the commitment, then per repetition its round evaluations,
    claims, combination rows, query indices, columns in Merkle order and
    sibling digests — every value a verifier reads."""
    h = hashlib.sha256()

    def ints(values):
        arr = np.asarray([int(v) for v in values], dtype="<u8")
        h.update(len(arr).to_bytes(4, "little") + arr.tobytes())

    c = proof.witness_commitment
    h.update(c.root)
    ints([c.table_len, c.num_rows, c.num_cols, len(proof.repetitions)])
    for rp in proof.repetitions:
        for evals in rp.sc1_round_evals:
            ints(evals)
        ints([rp.va, rp.vb, rp.vc, rp.w_eval])
        for evals in rp.sc2.round_evals:
            ints(evals)
        ints(rp.sc2.final_values)
        p = rp.pcs_proof
        for row in p.proximity_rows:
            ints(row)
        ints(p.eval_row)
        ints(p.query_indices)
        ints(p.merkle.indices)
        for col in p.columns:
            ints(col)
        h.update(b"".join(p.merkle.nodes))
    return h.hexdigest()


class TestProofObjectsDidNotMove:
    """The column table is a wire change only: the proof objects of a
    seeded PAPER prove — so the transcript and every challenge — are the
    ones recorded before it, and a decoded envelope gives them back."""

    #: Recorded on the v3 envelope's code, before the column table.
    DIGESTS = {
        "litmus": "bec9f12d6123f49ef9f8cd83b8b98a72"
                  "17a5d911150f01df32333605a8817ca8",
        "aes": "0efd6dafe06407564bf31ac494b9ee07"
               "318ce683c86fe00215947adb19e3910d",
        "synthetic-2p12": "8531419e328c30d45612d6696de6f626"
                          "284f014a996c5e57517b68b128cd7311",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_decoded_envelope_reproduces_the_objects(self, name):
        vk, bundle = _seed7(name, PAPER.name)
        assert _object_digest(bundle.proof) == self.DIGESTS[name]
        decoded = ProofBundle.from_bytes(bundle.to_bytes())
        assert _object_digest(decoded.proof) == self.DIGESTS[name]
        assert verify(vk, decoded)


class TestWireSize:
    """What a proof costs on the link: each opened column travels once,
    and the size a bundle reports is its envelope's length."""

    #: ``len(prove(pk, ..., seed=7).to_bytes())`` under PAPER; with each
    #: repetition's columns on the wire (NCPE v3) they were 627,311 /
    #: 606,095 / 406,111 / 52,842 / 52,723 bytes.
    PAPER_ENVELOPE_BYTES = {"aes": 442_895, "sha": 278_711, "rsa": 140_887,
                            "litmus": 19_682, "auction": 19_563}

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_paper_envelope_length(self, name):
        _, bundle = _seed7(name, PAPER.name)
        assert len(bundle.to_bytes()) == self.PAPER_ENVELOPE_BYTES[name]

    @pytest.mark.parametrize("preset", [PAPER.name, TEST.name])
    @pytest.mark.parametrize("name", REGISTRY_NAMES + ("synthetic-2p12",))
    def test_size_bytes_is_the_envelope_length(self, name, preset):
        _, bundle = _seed7(name, preset)
        assert bundle.size_bytes() == len(bundle.to_bytes())
        assert bundle.report.proof_size_bytes == bundle.size_bytes()

    def test_each_distinct_column_once(self):
        """litmus's three repetitions open the same 16 columns: the
        payload carries 16, and the decoded repetitions read them as
        read-only views of one table."""
        _, bundle = _seed7("litmus", PAPER.name)
        reps = ProofBundle.from_bytes(bundle.to_bytes()).proof.repetitions
        assert len(reps) == 3
        for k, col in enumerate(reps[0].pcs_proof.columns):
            assert not col.flags.writeable
            for rp in reps[1:]:
                assert np.shares_memory(col, rp.pcs_proof.columns[k])


class TestColumnTable:
    """The strict reader over the column table, and the writer's refusal
    of a proof the table cannot carry."""

    @staticmethod
    def _payload():
        """PAPER litmus payload, the table's start and its geometry."""
        _, bundle = _seed7("litmus", PAPER.name)
        data = proof_to_bytes(bundle.proof)
        n = len(bundle.proof.repetitions[0].pcs_proof.columns)
        height = len(bundle.proof.repetitions[0].pcs_proof.columns[0])
        stride = 4 + 8 * height
        start = len(data) - n * stride
        assert int.from_bytes(data[start - 4:start], "little") == n
        return bundle, data, start, stride, height

    def test_truncated_table(self):
        _, data, start, _, _ = self._payload()
        with pytest.raises(DeserializationError, match="truncated") as ei:
            proof_from_bytes(data[:-8])
        assert ei.value.offset == start

    def test_column_of_the_other_allowed_height(self):
        bundle, data, start, stride, height = self._payload()
        rows = bundle.proof.witness_commitment.num_rows
        assert height == rows + 1           # the zk mask row is on
        at = start + 2 * stride
        buf = bytearray(data)
        del buf[at + stride - 8:at + stride]
        buf[at:at + 4] = rows.to_bytes(4, "little")
        with pytest.raises(DeserializationError, match="differs") as ei:
            proof_from_bytes(bytes(buf))
        assert ei.value.offset == at

    def test_non_canonical_element(self):
        _, data, start, stride, _ = self._payload()
        at = start + 3 * stride + 4 + 8 * 5
        buf = bytearray(data)
        buf[at:at + 8] = MODULUS.to_bytes(8, "little")
        with pytest.raises(DeserializationError,
                           match="non-canonical") as ei:
            proof_from_bytes(bytes(buf))
        assert ei.value.offset == at

    def test_trailing_bytes(self):
        _, data, _, _, _ = self._payload()
        with pytest.raises(DeserializationError, match="trailing") as ei:
            proof_from_bytes(data + b"\x00")
        assert ei.value.offset == len(data)

    def test_count_other_than_the_union(self):
        _, data, start, _, _ = self._payload()
        buf = bytearray(data)
        buf[start - 4:start] = (15).to_bytes(4, "little")
        with pytest.raises(DeserializationError, match="16 distinct") as ei:
            proof_from_bytes(bytes(buf))
        assert ei.value.offset == start

    def test_writer_refuses_disagreeing_repetitions(self):
        import copy

        bundle, _, _, _, _ = self._payload()
        proof = copy.deepcopy(bundle.proof)
        col = proof.repetitions[1].pcs_proof.columns[4].copy()
        col[0] = (int(col[0]) + 1) % MODULUS
        proof.repetitions[1].pcs_proof.columns[4] = col
        with pytest.raises(ValueError, match="other values"):
            proof_to_bytes(proof)
        proof = copy.deepcopy(bundle.proof)
        proof.repetitions[2].pcs_proof.columns.pop()
        with pytest.raises(ValueError, match="distinct query indices"):
            proof_to_bytes(proof)


class TestVerifierHashesEachColumnOnce:
    """The verifier checks a proof's three openings as one batch: each
    distinct opened column is leaf-hashed once, however many repetitions
    open it (a per-opening check hashed 567 for ``sha``, 48 for
    ``litmus``)."""

    @pytest.mark.parametrize("name,distinct", [("sha", 251), ("litmus", 16)])
    def test_leaf_hashes_per_verify(self, name, distinct, monkeypatch):
        from repro.hashing.fieldhash import LEAF_TAG
        from repro.snark.serialize import column_table

        vk, bundle = _seed7(name, PAPER.name)
        decoded = ProofBundle.from_bytes(bundle.to_bytes())
        assert len(column_table(decoded.proof)[0]) == distinct
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
    4C-point NTT domain, and C distinct opened columns pin it down.  This
    pins the leak as it stands; a change that makes the proofs
    zero-knowledge must make these tests fail."""

    @staticmethod
    def _opened(name):
        """(committed witness matrix, {codeword index: opened column}) of
        the first repetition of a seeded PAPER proof of registry ``name``."""
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload(name)
        r1cs, public, witness = circuit.compile()
        pk, _ = setup(r1cs, PAPER)
        proof = prove(pk, public, witness, seed=7,
                      circuit_id=circuit_id).proof
        com = proof.witness_commitment
        rows = r1cs.split_z(r1cs.assemble_z(public, witness))[1].reshape(
            com.num_rows, com.num_cols)
        pcs = proof.repetitions[0].pcs_proof
        return rows, dict(zip(pcs.merkle.indices, pcs.columns))

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
