"""End-to-end tests for the Spartan+Orion zk-SNARK."""

import copy

import numpy as np
import pytest

from repro.field import vector as fv
from repro.field.goldilocks import MODULUS
from repro.hashing import Transcript
from repro.multilinear import eq_table
from repro.pcs import OrionPCS, PCSParams
from repro.r1cs import Circuit
from repro.spartan import (
    SatisfiedRound0,
    SpartanParams,
    SpartanProver,
    SpartanVerifier,
    combined_matrix_eval,
    combined_matrix_row,
    matrix_mle_eval,
    prove_constraint_sumcheck,
)
from repro.snark.serialize import proof_to_bytes
from repro.workloads import synthetic_r1cs


def _cubic_circuit():
    c = Circuit()
    out = c.public(35)
    x = c.witness(3)
    c.assert_equal(c.mul(c.mul(x, x), x) + x + 5, out)
    return c.compile()


def _pcs(seed=1):
    return OrionPCS(params=PCSParams(num_rows=8),
                    rng=np.random.default_rng(seed))


def _prove(r1cs, pub, wit, reps=1, seed=1):
    params = SpartanParams(repetitions=reps)
    prover = SpartanProver(r1cs, _pcs(seed), params)
    verifier = SpartanVerifier(r1cs, _pcs(seed), params)
    proof = prover.prove(pub, wit, Transcript())
    return proof, verifier


class TestMatrixEval:
    def test_matches_dense_mle(self, rng):
        r1cs, pub, wit = synthetic_r1cs(4, band=4, seed=1)
        z = r1cs.assemble_z(pub, wit)
        log_n = r1cs.shape.log_size
        rx = [int(x) for x in fv.rand_vector(log_n, rng)]
        ry = [int(x) for x in fv.rand_vector(log_n, rng)]
        # Flattened dense MLE evaluation as oracle.
        from repro.multilinear import mle_eval

        dense = np.zeros((r1cs.shape.num_constraints,
                          r1cs.shape.num_constraints), dtype=np.uint64)
        for r, c, v in r1cs.a.entries():
            dense[r, c] = (int(dense[r, c]) + v) % MODULUS
        flat = dense.reshape(-1)
        assert matrix_mle_eval(r1cs.a, rx, ry) == mle_eval(flat, rx + ry)

    def test_combined_matches_individual(self, rng):
        r1cs, _, _ = synthetic_r1cs(4, band=4, seed=2)
        log_n = r1cs.shape.log_size
        rx = [int(x) for x in fv.rand_vector(log_n, rng)]
        ry = [int(x) for x in fv.rand_vector(log_n, rng)]
        ra, rb, rc = 3, 5, 7
        want = (ra * matrix_mle_eval(r1cs.a, rx, ry)
                + rb * matrix_mle_eval(r1cs.b, rx, ry)
                + rc * matrix_mle_eval(r1cs.c, rx, ry)) % MODULUS
        assert combined_matrix_eval(r1cs.a, r1cs.b, r1cs.c, ra, rb, rc,
                                    rx, ry) == want

    def test_combined_row_consistency(self, rng):
        """The sumcheck-2 factor table evaluated at ry must equal the
        combined matrix MLE at (rx, ry)."""
        from repro.multilinear import mle_eval

        r1cs, _, _ = synthetic_r1cs(4, band=4, seed=3)
        log_n = r1cs.shape.log_size
        rx = [int(x) for x in fv.rand_vector(log_n, rng)]
        ry = [int(x) for x in fv.rand_vector(log_n, rng)]
        row = combined_matrix_row(r1cs.a, r1cs.b, r1cs.c, 3, 5, 7, rx)
        assert mle_eval(row, ry) == combined_matrix_eval(
            r1cs.a, r1cs.b, r1cs.c, 3, 5, 7, rx, ry)

    def test_dimension_check(self, rng):
        r1cs, _, _ = synthetic_r1cs(4, seed=4)
        with pytest.raises(ValueError):
            matrix_mle_eval(r1cs.a, [1, 2], [1, 2, 3, 4])

    @pytest.mark.parametrize("rx_len,ry_len", [(5, 4), (4, 5), (3, 4), (4, 0)])
    def test_combined_dimension_check(self, rx_len, ry_len):
        """An over-long point used to evaluate a bigger eq table silently
        and a short one died with IndexError in the gather."""
        r1cs, _, _ = synthetic_r1cs(4, seed=4)
        with pytest.raises(ValueError):
            combined_matrix_eval(r1cs.a, r1cs.b, r1cs.c, 3, 5, 7,
                                 [2] * rx_len, [3] * ry_len)

    @pytest.mark.parametrize("nnz", [0, 1, 3, 7, 9, 10])
    def test_blocked_entry_loop_matches_dense(self, rng, monkeypatch, nnz):
        """Blocks of 3 entries: an empty matrix, a single short block, exact
        multiples of the block (3, 9) and ragged tails (7, 10)."""
        from repro.r1cs.matrices import SparseMatrix
        from repro.spartan import matrixeval

        monkeypatch.setattr(matrixeval, "ENTRY_BLOCK", 3)
        m = SparseMatrix(8, 4, rng.integers(0, 8, size=nnz),
                         rng.integers(0, 4, size=nnz),
                         fv.rand_vector(nnz, rng))
        rx = [int(x) for x in fv.rand_vector(3, rng)]
        ry = [int(x) for x in fv.rand_vector(2, rng)]
        eq_rows, eq_cols = eq_table(rx), eq_table(ry)
        dense = m.to_dense()
        want = sum(int(dense[i, j]) * int(eq_rows[i]) * int(eq_cols[j])
                   for i in range(8) for j in range(4)) % MODULUS
        assert matrix_mle_eval(m, rx, ry) == want
        assert combined_matrix_eval(m, m, m, 3, 5, 7, rx, ry) \
            == 15 * want % MODULUS


class TestSpartanEndToEnd:
    def test_cubic_circuit(self):
        r1cs, pub, wit = _cubic_circuit()
        proof, verifier = _prove(r1cs, pub, wit)
        assert verifier.verify(pub, proof, Transcript())

    def test_synthetic_instances(self):
        for log_size in (3, 5, 7):
            r1cs, pub, wit = synthetic_r1cs(log_size, band=8, seed=log_size)
            proof, verifier = _prove(r1cs, pub, wit)
            assert verifier.verify(pub, proof, Transcript()), log_size

    def test_three_repetitions(self):
        r1cs, pub, wit = _cubic_circuit()
        proof, verifier = _prove(r1cs, pub, wit, reps=3)
        assert len(proof.repetitions) == 3
        assert verifier.verify(pub, proof, Transcript())

    def test_repetition_count_checked(self):
        r1cs, pub, wit = _cubic_circuit()
        proof, _ = _prove(r1cs, pub, wit, reps=2)
        strict = SpartanVerifier(r1cs, _pcs(), SpartanParams(repetitions=3))
        assert not strict.verify(pub, proof, Transcript())

    def test_invalid_witness_raises(self):
        """... before the transcript has absorbed anything."""
        r1cs, pub, wit = _cubic_circuit()
        bad = wit.copy()
        bad[0] = 4
        prover = SpartanProver(r1cs, _pcs(), SpartanParams(repetitions=1))
        tr = Transcript()
        fresh = (tr._state, tr._counter)
        with pytest.raises(ValueError, match="does not satisfy"):
            prover.prove(pub, bad, tr)
        assert (tr._state, tr._counter) == fresh

    def test_round0_object_only_exists_for_satisfied_tables(self, rng):
        """The ``g(1) = 0`` shortcut is reachable only through an object
        whose construction checked ``az o bz == cz`` on the very arrays the
        sumcheck is then given."""
        az, bz = fv.rand_vector(16, rng), fv.rand_vector(16, rng)
        cz = fv.mul(az, bz)
        round0 = SatisfiedRound0(az, bz, cz)
        off_by_one = cz.copy()
        off_by_one[-1] ^= np.uint64(1)
        with pytest.raises(ValueError, match="does not satisfy"):
            SatisfiedRound0(az, bz, off_by_one)
        with pytest.raises(ValueError, match="other tables"):
            prove_constraint_sumcheck([1, 2, 3, 4], az, bz, off_by_one,
                                      Transcript(), round0=round0)
        with pytest.raises(ValueError, match="power-of-two"):
            SatisfiedRound0(az[:12], bz[:12], cz[:12])

    def test_wrong_public_input_rejected(self):
        r1cs, pub, wit = _cubic_circuit()
        proof, verifier = _prove(r1cs, pub, wit)
        bad = pub.copy()
        bad[1] = 36
        assert not verifier.verify(bad, proof, Transcript())

    def test_wrong_public_length_rejected(self):
        r1cs, pub, wit = _cubic_circuit()
        proof, verifier = _prove(r1cs, pub, wit)
        assert not verifier.verify(pub[:-1], proof, Transcript())


class TestSpartanTamperResistance:
    @pytest.fixture
    def setup(self):
        r1cs, pub, wit = _cubic_circuit()
        proof, verifier = _prove(r1cs, pub, wit)
        return proof, verifier, pub

    def test_tampered_va(self, setup):
        proof, verifier, pub = setup
        bad = copy.deepcopy(proof)
        bad.repetitions[0].va = (bad.repetitions[0].va + 1) % MODULUS
        assert not verifier.verify(pub, bad, Transcript())

    def test_tampered_vc(self, setup):
        proof, verifier, pub = setup
        bad = copy.deepcopy(proof)
        bad.repetitions[0].vc = (bad.repetitions[0].vc + 1) % MODULUS
        assert not verifier.verify(pub, bad, Transcript())

    def test_tampered_sc1_round(self, setup):
        proof, verifier, pub = setup
        bad = copy.deepcopy(proof)
        bad.repetitions[0].sc1_round_evals[0][2] = (
            bad.repetitions[0].sc1_round_evals[0][2] + 1) % MODULUS
        assert not verifier.verify(pub, bad, Transcript())

    def test_tampered_sc2_final(self, setup):
        proof, verifier, pub = setup
        bad = copy.deepcopy(proof)
        bad.repetitions[0].sc2.final_values[0] = (
            bad.repetitions[0].sc2.final_values[0] + 1) % MODULUS
        assert not verifier.verify(pub, bad, Transcript())

    def test_tampered_w_eval(self, setup):
        proof, verifier, pub = setup
        bad = copy.deepcopy(proof)
        bad.repetitions[0].w_eval = (bad.repetitions[0].w_eval + 1) % MODULUS
        assert not verifier.verify(pub, bad, Transcript())

    def test_tampered_commitment(self, setup):
        proof, verifier, pub = setup
        bad = copy.deepcopy(proof)
        bad.witness_commitment.root = b"\x11" * 32
        assert not verifier.verify(pub, bad, Transcript())

    def test_proof_from_other_statement_rejected(self):
        r1cs, pub, wit = _cubic_circuit()
        proof, verifier = _prove(r1cs, pub, wit)
        # A different (satisfiable) instance's proof must not verify here.
        r2, pub2, wit2 = synthetic_r1cs(7, seed=7)
        proof2, _ = _prove(r2, pub2, wit2)
        assert not verifier.verify(pub, proof2, Transcript())


class TestProofSize:
    def test_size_grows_with_repetitions(self):
        """Each repetition ships its own sumchecks and openings; only the
        commitment and the column table are shared, so three
        repetitions' payload is more than twice one's."""
        r1cs, pub, wit = _cubic_circuit()
        p1, _ = _prove(r1cs, pub, wit, reps=1)
        p3, _ = _prove(r1cs, pub, wit, reps=3)
        assert len(proof_to_bytes(p3)) > 2 * len(proof_to_bytes(p1))


class TestPerProofWork:
    """Kernel batches of one traced PAPER prove of ``synthetic_r1cs(12)``:
    what the three repetitions share is done once.  Round 0 of sumcheck 1
    (three differences, dA o dB, inner(1)) and the witness evaluation left
    the repetition loop and ``vecmat`` makes no field multiply, so the
    counts read 70 / 75 where the parent read 105 / 87.  The ceilings ARE
    the measured counts: they depend on the protocol, not on the seed."""

    def test_mul_and_scale_add_batches_per_prove(self):
        from repro import PAPER, obs, prove, setup

        r1cs, pub, wit = synthetic_r1cs(12)
        pk, _vk = setup(r1cs, PAPER)
        with obs.tracing() as tracer:
            prove(pk, pub, wit, seed=7)
        counters = tracer.counters
        assert 0 < counters["field.mul_batches"] <= 70, counters
        assert 0 < counters["field.scale_add_batches"] <= 75, counters


def _traced(run):
    """(result, bytes still allocated, peak bytes) of ``run()`` under
    tracemalloc, counted from zero."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = run()
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, resident, peak


class TestProveHighWater:
    """Each array held once in a prove.  ``SatisfiedRound0`` writes its
    differences over the products' top halves, and the commit keeps the
    witness rows as a view of ``z`` plus the mask row alone, where a
    prove used to hold 1.5 n words of differences and an n/2-word
    stacked copy beside them."""

    def test_round0_adds_no_array(self, rng):
        """The three differences live in the top halves of the tables the
        object now owns, and round 0's leading term dA o dB is formed in
        each call rather than held for the whole proof: the object
        allocates nothing that outlives its construction."""
        n = 1 << 16
        az, bz = fv.rand_vector(n, rng), fv.rand_vector(n, rng)
        cz = fv.mul(az, bz)
        tops = [t[n // 2:].copy() for t in (az, bz, cz)]
        bottoms = [t[:n // 2].copy() for t in (az, bz, cz)]
        round0, resident, _peak = _traced(lambda: SatisfiedRound0(az, bz, cz))
        assert resident <= 64 << 10, resident / (n * 8)
        bots, diffs, inner1 = round0.terms
        for t, bot, top, b, d in zip((az, bz, cz), bottoms, tops, bots,
                                     diffs):
            assert np.shares_memory(d, t[n // 2:])
            assert np.shares_memory(b, t[:n // 2])
            assert np.array_equal(b, bot)
            assert np.array_equal(d, fv.sub(top, bot))
        assert inner1 == 0

    def test_prove_high_water_above_the_key(self):
        """One PAPER prove of ``synthetic_r1cs(16)`` with its key built:
        the tracemalloc peak, the process's high-water above the key
        bytes, is <= 21 n words (19.9 measured; 21.9 with the copies).  It
        sits in the transposed SpMV: 3 n of scaled copies, n of output
        and ~5 n of fixed kernel scratch at this size."""
        from repro import PAPER, prove, setup

        r1cs, pub, wit = synthetic_r1cs(16)
        n = r1cs.shape.num_constraints
        pk, _vk = setup(r1cs, PAPER)
        prove(pk, pub, wit, seed=7)          # layout and kernel scratch
        _bundle, _resident, peak = _traced(
            lambda: prove(pk, pub, wit, seed=7))
        assert peak <= 21 * n * 8, peak / (n * 8)


class TestProveWorkingSet:
    """The high-water mark of a synthetic prove is its working set
    (docs/PERFORMANCE.md, "hold only what the next step reads").  Above
    the key, a prove's peak is in the transposed product and holds z, the
    three products, the codewords, the scaled copies of eq(rx) and the
    combined row: 1 + 3 + 2 + 3 + 1 = 10 n words, beside the transposed
    pass's kernel scratch and reduction temporaries (< 4 MiB at this
    size).  Before, the previous repetition's combined row, a separate
    eq(rx) table and the held dA o dB rode along (19.9 n at 2^16).  The
    generator peaks in the layout build, holding the key, its int32
    scatter bookkeeping and one member's sort order: at most 1.5x what it
    returns at 2^17 (1.58x when it also held its own temporaries and
    int64 bookkeeping)."""

    def test_prove_peak_is_the_live_set(self):
        from repro import PAPER, prove, setup

        r1cs, pub, wit = synthetic_r1cs(16)
        n = r1cs.shape.num_constraints
        pk, _vk = setup(r1cs, PAPER)
        prove(pk, pub, wit, seed=7)          # layout and kernel scratch
        _bundle, _resident, peak = _traced(
            lambda: prove(pk, pub, wit, seed=7))
        assert peak <= 10 * n * 8 + (4 << 20), peak / (n * 8)

    def test_generator_peak_is_a_fixed_multiple_of_what_it_returns(self):
        synthetic_r1cs(12)                   # kernel scratch
        (r1cs, pub, wit), _resident, peak = _traced(
            lambda: synthetic_r1cs(17))
        returned = r1cs.nbytes + pub.nbytes + wit.nbytes
        assert peak <= 1.5 * returned, peak / returned
