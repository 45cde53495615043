"""Adversarial-input hardening tests: the reject / never-crash /
never-accept contract (see docs/ROBUSTNESS.md).

Covers the typed error taxonomy, strict deserialization properties
(hypothesis), transcript domain separation across circuits, the fuzz
mutators, NoCap config / statement-size validation, and the CLI's error
exit codes.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    ConfigError,
    DeserializationError,
    ReproError,
    TranscriptError,
    VerificationError,
)
from repro.field.goldilocks import MODULUS
from repro.fuzz.mutate import (
    random_mutants,
    splice_mutants,
    structured_mutants,
)
from repro.nocap.config import NoCapConfig
from repro.nocap.simulator import NoCapSimulator
from repro.r1cs import Circuit
from repro.snark import (
    TEST,
    ProofBundle,
    proof_from_bytes,
    proof_to_bytes,
    prove,
    setup,
    verify,
)


def _cubic(x=3, out=35):
    c = Circuit()
    o = c.public(out)
    w = c.witness(x)
    c.assert_equal(c.mul(c.mul(w, w), w) + w + 5, o)
    return c


def _square(x=5, out=25):
    c = Circuit()
    o = c.public(out)
    w = c.witness(x)
    c.assert_equal(c.mul(w, w), o)
    return c


def _vr(vk, public, proof) -> bool:
    """Raw-parts verification via the lifecycle API."""
    return verify(vk, ProofBundle(proof=proof, public=public))


def _verifies(vk, mutant) -> bool:
    """A mutant envelope parses and verifies (a typed parse error is a
    rejection)."""
    try:
        bundle = ProofBundle.from_bytes(mutant.data)
    except ReproError:
        return False
    return verify(vk, bundle)


def _columns_mode_proof():
    """A TEST proof that ships its columns: 2^10 constraints commit 32
    columns, more than the preset's 24 queries fix."""
    from repro.workloads import synthetic_r1cs

    r1cs, public, witness = synthetic_r1cs(10)
    pk, _ = setup(r1cs, TEST)
    proof = prove(pk, public, witness, seed=1).proof
    assert proof.repetitions[0].pcs_proof.message is None
    return proof


@pytest.fixture(scope="module")
def baseline():
    """One honest (vk, bundle, wire bytes) triple, proved once."""
    r1cs, public, witness = _cubic().compile()
    pk, vk = setup(r1cs, TEST)
    bundle = prove(pk, public, witness)
    return vk, bundle, proof_to_bytes(bundle.proof)


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(DeserializationError, ReproError)
        assert issubclass(VerificationError, ReproError)
        assert issubclass(TranscriptError, ReproError)
        assert issubclass(ConfigError, ReproError)
        # Back-compat: callers that caught ValueError keep working.
        assert issubclass(DeserializationError, ValueError)
        assert issubclass(ConfigError, ValueError)

    def test_offset_context(self):
        with pytest.raises(DeserializationError, match="byte offset"):
            proof_from_bytes(b"NCAP\x02" + b"\x00" * 10)

    def test_exported_from_package(self):
        import repro

        assert repro.ReproError is ReproError
        assert repro.DeserializationError is DeserializationError


class TestStrictParserProperties:
    @given(st.data())
    def test_single_byte_mutation_rejected(self, baseline, data):
        """Any single-byte change is rejected via False or a typed
        ReproError — never an IndexError, struct.error or numpy crash."""
        vk, bundle, wire = baseline
        pos = data.draw(st.integers(0, len(wire) - 1))
        delta = data.draw(st.integers(1, 255))
        buf = bytearray(wire)
        buf[pos] = (buf[pos] + delta) % 256
        try:
            proof = proof_from_bytes(bytes(buf))
        except ReproError:
            return
        assert _vr(vk, bundle.public, proof) is False

    @given(st.binary(max_size=300))
    def test_garbage_never_crashes(self, blob):
        with pytest.raises(ReproError):
            proof_from_bytes(blob)

    def test_round_trip_is_stable(self, baseline):
        vk, bundle, wire = baseline
        proof = proof_from_bytes(wire)
        assert proof_to_bytes(proof) == wire
        assert _vr(vk, bundle.public, proof)

    def test_truncation_every_prefix(self, baseline):
        _, _, wire = baseline
        for cut in range(0, len(wire), 7):
            with pytest.raises(DeserializationError):
                proof_from_bytes(wire[:cut])

    def test_trailing_bytes_rejected(self, baseline):
        _, _, wire = baseline
        with pytest.raises(DeserializationError, match="trailing"):
            proof_from_bytes(wire + b"\x00")


class TestOpenedColumnBlock:
    """The column table parses as one block: every bound is checked
    before the table is allocated, and an error names the first byte at
    fault."""

    @staticmethod
    def _run(columns):
        from repro.snark.serialize import _Writer

        w = _Writer()
        w.u32(0xABCD)                      # something before the table
        w.table(columns)
        return w.getvalue()

    @staticmethod
    def _read(data, heights=(3, 4)):
        from repro.snark.serialize import _Reader

        r = _Reader(data)
        r.uint("prefix")
        cols = r.table(r.uint("table.count"), heights)
        return r, cols

    def test_block_equals_column_at_a_time(self):
        columns = [[1, 0, 3, 4], [5, 0, 7, MODULUS - 1], [0, 0, 0, 0]]
        data = self._run(columns)
        # prefix, count, height, one bitmap byte (row 1), 3 x 3 values
        assert len(data) == 4 + 4 + 4 + 1 + 8 * 3 * 3
        assert data[12] == 0b0010
        r, cols = self._read(data)
        assert r.done()
        for got, want in zip(cols, columns, strict=True):
            assert got.dtype == np.uint64 and got.tolist() == want
            assert not got.flags.writeable
        assert self._read(self._run([]))[1] == []

    def test_mixed_heights_refused_by_the_writer(self):
        """One height field: the writer lays out one ``(count, height)``
        array, so a column of another height cannot reach it and no
        reader ever sees one."""
        with pytest.raises(ValueError, match="inhomogeneous"):
            self._run([[1, 2, 3, 4], [5, 6, 7, 8], [9, 9, 9]])

    def test_height_outside_the_geometry_refused(self):
        data = self._run([[1, 2], [3, 4]])
        with pytest.raises(DeserializationError, match="height") as ei:
            self._read(data)
        assert ei.value.offset == 8

    def test_table_beyond_the_cell_cap_refused_before_allocating(self):
        """Left-out rows cost one bit, so the cells a table may decode
        to are capped: 4,097 columns of 4,096 rows are refused at the
        height, before the bitmap is read."""
        from repro.snark.serialize import MAX_TABLE_CELLS, _Reader

        assert 4097 * 4096 > MAX_TABLE_CELLS
        r = _Reader((4096).to_bytes(4, "little"))
        with pytest.raises(DeserializationError, match="exceeds cap") as ei:
            r.table(4097, (4096,))
        assert ei.value.offset == 0

    def test_padding_bit_refused(self):
        data = bytearray(self._run([[1, 2, 3], [4, 5, 6]]))
        data[12] |= 1 << 5
        with pytest.raises(DeserializationError, match="padding") as ei:
            self._read(bytes(data))
        assert ei.value.offset == 12

    def test_non_canonical_element_reports_its_own_offset(self):
        data = self._run([[1, 2, 3], [4, MODULUS, 2**64 - 1], [7, 8, 9]])
        with pytest.raises(DeserializationError) as ei:
            self._read(data)
        assert ei.value.offset == 4 + 4 + 4 + 1 + 8 * (3 + 1)

    def test_truncated_run(self):
        data = self._run([[1, 0, 3], [4, 0, 6]])
        for cut in range(8, len(data)):
            with pytest.raises(DeserializationError) as ei:
                self._read(data[:cut])
            assert ei.value.offset <= cut

    def test_proof_with_mixed_column_heights_cannot_be_written(self):
        """Dropping the mask row from one opened column used to parse and
        then fail ``OrionPCS.verify``; the table has one height field,
        so the writer refuses such a proof."""
        queries = TEST.column_queries
        proof = proof_from_bytes(
            proof_to_bytes(_columns_mode_proof(), column_queries=queries),
            column_queries=queries)
        cols = proof.repetitions[0].pcs_proof.columns
        assert len(cols) > 1
        cols[-1] = cols[-1][:-1]
        with pytest.raises(ValueError, match=r"opening 0 opens no column of "
                                             r"\d+ canonical elements"):
            proof_to_bytes(proof, column_queries=queries)


class TestSumcheckRoundsBlock:
    """A sumcheck's rounds move as one block of packed ``<u4`` + ``<u8``
    records, byte for byte the per-round arrays they replace; the reader
    refuses, at the offset at fault, a round of another length, too many
    evaluations and a non-canonical evaluation."""

    ROUNDS = [[1, 2, 3], [4, 5, MODULUS - 1], [0, 0, 7]]

    @staticmethod
    def _read(data):
        from repro.snark.serialize import _Reader

        r = _Reader(data)
        return r, r.rounds("sumcheck-1 round")

    def test_block_equals_round_at_a_time(self):
        from repro.snark.serialize import _Writer

        block, arrays = _Writer(), _Writer()
        block.rounds(self.ROUNDS)
        arrays.u32(len(self.ROUNDS))
        for evals in self.ROUNDS:
            arrays.array(evals)
        data = block.getvalue()
        assert data == arrays.getvalue()
        r, rounds = self._read(data)
        assert r.done() and rounds == self.ROUNDS
        empty = _Writer()
        empty.rounds([])
        assert self._read(empty.getvalue())[1] == []

    def test_rounds_of_unequal_lengths_refused_by_the_writer(self):
        from repro.snark.serialize import _Writer

        with pytest.raises(ValueError, match="one length"):
            _Writer().rounds([[1, 2, 3], [4, 5]])

    def test_round_of_another_length_refused(self):
        from repro.snark.serialize import _Writer

        w = _Writer()
        w.rounds(self.ROUNDS)
        data = bytearray(w.getvalue())
        at = 4 + 2 * (4 + 8 * 3)           # round 2's count
        data[at:at + 4] = (2).to_bytes(4, "little")
        with pytest.raises(DeserializationError,
                           match="round 2 has 2 evaluations") as ei:
            self._read(bytes(data))
        assert ei.value.offset == at

    def test_too_many_evaluations_refused_at_the_count(self):
        from repro.snark.serialize import MAX_ROUND_EVALS, _Writer

        w = _Writer()
        w.rounds([[1] * (MAX_ROUND_EVALS + 1)])
        with pytest.raises(DeserializationError, match="evaluations") as ei:
            self._read(w.getvalue())
        assert ei.value.offset == 4

    def test_non_canonical_evaluation_reports_its_own_offset(self):
        from repro.snark.serialize import _Writer

        w = _Writer()
        w.rounds([[1, 2, 3], [4, MODULUS, 2**64 - 1]])
        with pytest.raises(DeserializationError,
                           match="non-canonical") as ei:
            self._read(w.getvalue())
        assert ei.value.offset == 4 + (4 + 8 * 3) + 4 + 8

    def test_truncated_block(self):
        from repro.snark.serialize import _Writer

        w = _Writer()
        w.rounds(self.ROUNDS)
        data = w.getvalue()
        for cut in range(4, len(data)):
            with pytest.raises(DeserializationError) as ei:
                self._read(data[:cut])
            assert ei.value.offset <= cut


class TestArrayBlock:
    """A field array is read as one block, one span: a non-canonical
    element is refused at its own offset, and the error names the span
    the reader was reading."""

    def test_non_canonical_element_reports_its_own_offset(self):
        from repro.snark.serialize import _Reader, _Writer

        w = _Writer()
        w.array([1, 2, MODULUS, 4])
        r = _Reader(w.getvalue())
        with pytest.raises(DeserializationError,
                           match="non-canonical element in rep") as ei:
            r.array("rep[0].sc2.finals")
        assert ei.value.offset == 4 + 8 * 2
        assert (ei.value.span, ei.value.span_kind) == (
            "rep[0].sc2.finals", "fields")

    def test_spans_of_a_block(self):
        from repro.snark.serialize import Span, _Reader, _Writer

        w = _Writer()
        w.array([7, 8, 9])
        w.array([5, 6], "<u4")
        r = _Reader(w.getvalue())
        assert r.array("a").tolist() == [7, 8, 9]
        assert r.array("q", kind="indices").tolist() == [5, 6]
        assert r.done() and r.layout() == [
            Span("a.count", "count", 0, 4, 1), Span("a", "fields", 4, 24, 3),
            Span("q.count", "count", 28, 4, 1),
            Span("q", "indices", 32, 8, 2)]

    def test_envelope_errors_name_the_span_at_its_envelope_offset(
            self, baseline):
        from repro.snark.envelope import layout

        _, bundle, _ = baseline
        data = bundle.to_bytes()
        va = next(s for s in layout(data) if s.path == "rep[0].va")
        bad = data[:va.offset] + (2**64 - 1).to_bytes(8, "little") + \
            data[va.end:]
        with pytest.raises(DeserializationError, match="in rep.0..va") as ei:
            ProofBundle.from_bytes(bad)
        assert (ei.value.offset, ei.value.span_kind) == (va.offset, "field")


class TestDomainSeparation:
    def test_cross_circuit_proof_rejected(self, baseline):
        """An honest proof of x^2==25 must not verify as x^3+x+5==35."""
        vk_a, bundle_a, _ = baseline
        r1cs_b, pub_b, wit_b = _square().compile()
        pk_b, vk_b = setup(r1cs_b, TEST)
        bundle_b = prove(pk_b, pub_b, wit_b)
        assert verify(vk_b, bundle_b)  # sanity
        assert not _vr(vk_a, bundle_a.public, bundle_b.proof)
        assert not _vr(vk_b, bundle_b.public, bundle_a.proof)

    def test_spliced_sections_rejected(self, baseline):
        """Grafting commitment/sumcheck/opening sections between proofs
        of different statements must never verify: the Fiat-Shamir
        transcript binds every section to the statement."""
        vk_a, bundle_a, _ = baseline
        r1cs_b, pub_b, wit_b = _square().compile()
        pk_b, _ = setup(r1cs_b, TEST)
        bundle_b = prove(pk_b, pub_b, wit_b)
        mutants = splice_mutants(bundle_a.to_bytes(), bundle_b.to_bytes())
        assert mutants
        for m in mutants:
            assert not _verifies(vk_a, m), m.mutator

    def test_wrong_public_inputs_rejected(self, baseline):
        vk, bundle, _ = baseline
        bad = np.array(bundle.public, copy=True)
        bad[-1] = (int(bad[-1]) + 1) % (2**64 - 2**32 + 1)
        assert not _vr(vk, bad, bundle.proof)


class TestMutators:
    """The mutators work on envelopes: the preset id they carry decides
    the payload's mode."""

    def test_structured_mutants_all_rejected(self, baseline):
        vk, bundle, _ = baseline
        envelope = bundle.to_bytes()
        rng = random.Random(11)
        mutants = structured_mutants(envelope, rng)
        assert len(mutants) >= 15  # every mutator class fired
        for m in mutants:
            assert m.data != envelope, f"{m.mutator} emitted a no-op mutant"
            assert not _verifies(vk, m), m.mutator

    def test_random_mutants_never_crash(self, baseline):
        vk, bundle, _ = baseline
        rng = random.Random(13)
        for m in random_mutants(bundle.to_bytes(), rng, 40):
            assert not _verifies(vk, m)

    def test_noncanonical_field_at_the_top_of_its_draw(self, baseline):
        """The injected word is at least the modulus and below 2^64 for
        every draw, the largest included: the generated field edit
        writes it, and the parser refuses it."""
        from repro.fuzz.mutate import element
        from repro.snark.envelope import layout

        class Top(random.Random):
            def randrange(self, start, stop=None, step=1):
                return (start if stop is None else stop) - 1

        _, bundle, _ = baseline
        data = bundle.to_bytes()
        spans = layout(data)
        for span in (s for s in spans if s.kind == "field"):
            noncanonical, _ = element(data, span, spans, Top())
            assert noncanonical[span.offset:span.end] == b"\xff" * 8
            with pytest.raises(DeserializationError,
                               match="non-canonical") as ei:
                ProofBundle.from_bytes(noncanonical)
            assert ei.value.offset == span.offset
            assert ei.value.span == span.path


class TestTiledCommitSoundness:
    """The verifier's rejections on a commit encoded in many tiles (the
    encode tile forced down to one row, so a 2^12 statement takes 17).
    100 queries of the 128-column commit leave it in columns mode."""

    @pytest.fixture(scope="class")
    def tiled(self):
        from unittest import mock

        from repro import obs
        from repro.pcs import orion
        from repro.pcs.orion import OrionPCS, PCSParams
        from repro.spartan.protocol import (SpartanParams, SpartanProver,
                                            SpartanVerifier)
        from repro.workloads import synthetic_r1cs

        params = SpartanParams(repetitions=1)

        from repro.code import ReedSolomonCode

        def pcs(seed):
            return OrionPCS(code=ReedSolomonCode(num_queries=100),
                            params=PCSParams(num_rows=16),
                            rng=np.random.default_rng(seed))

        proofs = []
        for seed in (1, 2):
            r1cs, public, witness = synthetic_r1cs(log_size=12, seed=seed)
            with obs.tracing() as tracer, mock.patch.object(
                    orion, "ENCODE_TILE_CELLS", 1):
                proof = SpartanProver(r1cs, pcs(seed), params).prove(
                    public, witness)
            assert sum(r.name == "rs.encode"
                       for r in tracer.records()) == 16 + 1
            verifier = SpartanVerifier(r1cs, pcs(0), params)
            assert verifier.verify(public, proof)
            proofs.append((verifier, public, proof))
        return proofs

    def _mutated(self, tiled, mutate) -> bool:
        import copy

        (verifier, public, proof), (_, _, other) = tiled
        mutant = copy.deepcopy(proof)
        mutate(mutant.repetitions[0].pcs_proof,
               other.repetitions[0].pcs_proof)
        return verifier.verify(public, mutant)

    def test_flipped_column_element_rejected(self, tiled):
        def flip(pcs_proof, _other):
            pcs_proof.columns[3][5] ^= np.uint64(1)

        assert not self._mutated(tiled, flip)

    def test_swapped_columns_rejected(self, tiled):
        def swap(pcs_proof, _other):
            cols = pcs_proof.columns
            assert not np.array_equal(cols[0], cols[1])
            cols[0], cols[1] = cols[1], cols[0]

        assert not self._mutated(tiled, swap)

    def test_spliced_multiproof_rejected(self, tiled):
        def whole(pcs_proof, other):
            pcs_proof.merkle = other.merkle

        def nodes_only(pcs_proof, other):
            # Same opened positions, the other tree's sibling digests.
            assert pcs_proof.merkle.nodes and other.merkle.nodes
            n = len(pcs_proof.merkle.nodes)
            pcs_proof.merkle.nodes = (other.merkle.nodes * n)[:n]

        assert not self._mutated(tiled, whole)
        assert not self._mutated(tiled, nodes_only)


class TestNoCapValidation:
    def test_bad_lane_counts(self):
        with pytest.raises(ConfigError, match="mul_lanes"):
            NoCapConfig(mul_lanes=0)
        with pytest.raises(ConfigError, match="hash_lanes"):
            NoCapConfig(hash_lanes=-4)
        with pytest.raises(ConfigError, match="frequency_hz"):
            NoCapConfig(frequency_hz=float("inf"))
        with pytest.raises(ConfigError, match="power of two"):
            NoCapConfig(ntt_base_size=1000)

    def test_bad_scale_factor(self):
        with pytest.raises(ConfigError, match="scale factor"):
            NoCapConfig().scale(hash=0.0)
        with pytest.raises(ConfigError, match="unknown resources"):
            NoCapConfig().scale(turbo=2.0)

    @pytest.mark.parametrize("n", [0, -8, 1000])
    def test_impossible_statement_size(self, n):
        with pytest.raises(ConfigError, match="power-of-two"):
            NoCapSimulator().simulate(n)

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_impossible_repetitions(self, repetitions):
        with pytest.raises(ConfigError, match="repetitions"):
            NoCapSimulator().simulate(1 << 10, repetitions=repetitions)


class TestCliExitCodes:
    def test_config_error_exit_code(self, capsys):
        from repro.cli import EXIT_CONFIG_ERROR, main

        code = main(["simulate", "--log-n", "10", "--hash", "0"])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "ConfigError" in err and "\n" == err[-1]

    def test_negative_log_n_exit_code(self, capsys):
        from repro.cli import EXIT_CONFIG_ERROR, main

        assert main(["simulate", "--log-n", "-1"]) == EXIT_CONFIG_ERROR
        assert "ConfigError" in capsys.readouterr().err

    def test_strict_reraises(self):
        from repro.cli import main

        with pytest.raises(ConfigError):
            main(["--strict", "simulate", "--log-n", "10", "--hash", "0"])


class TestOptimizedMode:
    def test_prove_verify_under_python_O(self):
        """The verification boundary must not rely on `assert`: the whole
        prove -> serialize -> parse -> verify loop, plus a rejected
        mutation, runs identically under ``python -O``."""
        src = Path(__file__).resolve().parent.parent / "src"
        # NB: plain `assert` would be stripped by -O, so the script checks
        # its outcomes with explicit exits.
        script = (
            "import sys\n"
            "if __debug__: sys.exit(3)  # not actually running under -O\n"
            "from repro.r1cs import Circuit\n"
            "from repro.snark import (TEST, ProofBundle, proof_from_bytes, "
            "proof_to_bytes, prove, setup, verify)\n"
            "from repro.errors import ReproError\n"
            "c = Circuit(); o = c.public(35); w = c.witness(3)\n"
            "c.assert_equal(c.mul(c.mul(w, w), w) + w + 5, o)\n"
            "r1cs, pub, wit = c.compile()\n"
            "pk, vk = setup(r1cs, TEST)\n"
            "b = prove(pk, pub, wit)\n"
            "wire = proof_to_bytes(b.proof)\n"
            "restored = ProofBundle(proof=proof_from_bytes(wire), "
            "public=b.public)\n"
            "if not verify(vk, restored):\n"
            "    sys.exit(1)  # honest proof rejected\n"
            "bad = bytearray(wire); bad[70] ^= 1\n"
            "try:\n"
            "    ok = verify(vk, ProofBundle(proof=proof_from_bytes("
            "bytes(bad)), public=b.public))\n"
            "except ReproError:\n"
            "    ok = False\n"
            "sys.exit(0 if not ok else 2)  # 2: mutant accepted\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
