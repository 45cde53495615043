"""Adversarial-input hardening tests: the reject / never-crash /
never-accept contract (see docs/ROBUSTNESS.md).

Covers the typed error taxonomy, strict deserialization properties
(hypothesis), transcript domain separation across circuits, the fuzz
mutators, NoCap config/ISA validation, and the CLI's error exit codes.
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
from repro.nocap.isa import Instruction, Opcode, Program, vadd, vload, vntt
from repro.nocap.scheduler import schedule_program
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
    """The opened columns of a PCS opening parse as one block; the
    error still names the first offending byte."""

    @staticmethod
    def _run(columns):
        from repro.snark.serialize import _Writer

        w = _Writer()
        w.u32(0xABCD)                      # something before the run
        for col in columns:
            w.array(np.asarray(col, dtype=np.uint64))
        return w.getvalue()

    @staticmethod
    def _read(data, n, heights=(3, 4)):
        from repro.snark.serialize import _Reader

        r = _Reader(data)
        r.u32()
        cols = r.array_run("opened column", n, heights)
        return r, cols

    def test_block_equals_column_at_a_time(self):
        from repro.snark.serialize import _Reader

        columns = [[1, 2, 3, 4], [5, 6, 7, MODULUS - 1], [0, 0, 0, 0]]
        data = self._run(columns)
        r, cols = self._read(data, 3)
        assert r.done()
        one = _Reader(data)
        one.u32()
        for got in cols:
            want = one.array("opened column")
            assert got.dtype == np.uint64 and got.tolist() == want.tolist()
        assert self._read(data, 0)[1] == []

    def test_mixed_heights_refused_at_the_odd_prefix(self):
        data = self._run([[1, 2, 3, 4], [5, 6, 7, 8], [9, 9, 9]])
        with pytest.raises(DeserializationError) as ei:
            self._read(data, 3)
        assert ei.value.offset == 4 + 2 * (4 + 8 * 4)

    def test_height_outside_the_geometry_refused(self):
        data = self._run([[1, 2], [3, 4]])
        with pytest.raises(DeserializationError) as ei:
            self._read(data, 2)
        assert ei.value.offset == 4

    def test_non_canonical_element_reports_its_own_offset(self):
        data = self._run([[1, 2, 3], [4, MODULUS, 2**64 - 1], [7, 8, 9]])
        with pytest.raises(DeserializationError) as ei:
            self._read(data, 3)
        assert ei.value.offset == 4 + (4 + 8 * 3) + 4 + 8 * 1

    def test_truncated_run(self):
        data = self._run([[1, 2, 3], [4, 5, 6]])
        for cut in range(4, len(data)):
            with pytest.raises(DeserializationError) as ei:
                self._read(data[:cut], 2)
            assert ei.value.offset <= cut

    def test_proof_with_mixed_column_heights_fails_to_parse(self, baseline):
        """Dropping the mask row from one opened column used to parse and
        then fail ``OrionPCS.verify``; it is a parse error now."""
        _, bundle, wire = baseline
        proof = proof_from_bytes(wire)
        cols = proof.repetitions[0].pcs_proof.columns
        assert len(cols) > 1
        cols[-1] = cols[-1][:-1]
        with pytest.raises(DeserializationError, match="differs"):
            proof_from_bytes(proof_to_bytes(proof))


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
        vk_a, bundle_a, wire_a = baseline
        r1cs_b, pub_b, wit_b = _square().compile()
        pk_b, _ = setup(r1cs_b, TEST)
        bundle_b = prove(pk_b, pub_b, wit_b)
        wire_b = proof_to_bytes(bundle_b.proof)
        rng = random.Random(7)
        mutants = splice_mutants(wire_a, wire_b, rng)
        assert mutants
        for m in mutants:
            try:
                proof = proof_from_bytes(m.data)
            except ReproError:
                continue
            assert not _vr(vk_a, bundle_a.public, proof), m.mutator

    def test_wrong_public_inputs_rejected(self, baseline):
        vk, bundle, _ = baseline
        bad = np.array(bundle.public, copy=True)
        bad[-1] = (int(bad[-1]) + 1) % (2**64 - 2**32 + 1)
        assert not _vr(vk, bad, bundle.proof)


class TestMutators:
    def test_structured_mutants_all_rejected(self, baseline):
        vk, bundle, wire = baseline
        rng = random.Random(11)
        mutants = structured_mutants(wire, rng)
        assert len(mutants) >= 15  # every mutator class fired
        for m in mutants:
            assert m.data != wire, f"{m.mutator} emitted a no-op mutant"
            try:
                proof = proof_from_bytes(m.data)
            except ReproError:
                continue
            assert not _vr(vk, bundle.public, proof), m.mutator

    def test_random_mutants_never_crash(self, baseline):
        vk, bundle, wire = baseline
        rng = random.Random(13)
        for m in random_mutants(wire, rng, 40):
            try:
                proof = proof_from_bytes(m.data)
            except ReproError:
                continue
            assert not _vr(vk, bundle.public, proof)


class TestTiledCommitSoundness:
    """The verifier's rejections on a commit encoded in many tiles (the
    encode tile forced down to one row, so a 2^12 statement takes 17)."""

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

        def pcs(seed):
            return OrionPCS(params=PCSParams(num_rows=16),
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

    def test_instruction_operand_shapes(self):
        prog = Program()
        prog.append(Instruction(Opcode.VADD, 128, dst="v0", srcs=("a",)))
        with pytest.raises(ConfigError, match="source register"):
            prog.validate(require_defined_sources=False)

    def test_vntt_over_base_size(self):
        cfg = NoCapConfig()
        prog = Program()
        prog.append(vntt("v0", "v1", cfg.ntt_base_size * 2))
        with pytest.raises(ConfigError, match="base size"):
            schedule_program(prog, cfg)

    def test_use_before_def(self):
        prog = Program()
        prog.append(vadd("v1", "v0", "v0", 128))
        with pytest.raises(ConfigError, match="before any instruction"):
            prog.validate()
        prog2 = Program()
        prog2.append(vload("v0", 0, 128))
        prog2.append(vadd("v1", "v0", "v0", 128))
        prog2.validate()  # must not raise


class TestCliExitCodes:
    def test_config_error_exit_code(self, capsys):
        from repro.cli import EXIT_CONFIG_ERROR, main

        code = main(["simulate", "--log-n", "10", "--hash", "0"])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "ConfigError" in err and "\n" == err[-1]

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
