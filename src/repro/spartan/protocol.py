"""The Spartan IOP composed with the Orion PCS: the paper's zk-SNARK.

Protocol outline (Setty, CRYPTO'20, NIZK variant; Sec. II / V of the
paper):

1. The prover commits to the witness MLE w~ with the Orion PCS.
2. Sumcheck #1 (cubic): sum_x eq(tau, x) * (Az~(x) Bz~(x) - Cz~(x)) = 0
   for a random tau, reducing satisfiability to claims (va, vb, vc) about
   Az~, Bz~, Cz~ at a random point rx.
3. The claims are bundled with random coefficients (r_a, r_b, r_c) and
   sumcheck #2 (quadratic) peels off the matrix products:
   sum_y M~(rx, y) * z~(y) = r_a va + r_b vb + r_c vc.
4. The verifier checks M~(rx, ry) itself (from the public matrices) and
   obtains z~(ry) from the public half plus a PCS opening of w~.

128-bit soundness over the 64-bit field comes from running the sumcheck
chain ``repetitions`` times with independent Fiat-Shamir challenges
(Sec. VII-A: 3 repetitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..field.goldilocks import MODULUS
from ..hashing.transcript import Transcript
from ..multilinear.mle import eq_eval, mle_eval_head
from ..multilinear.sumcheck import (
    SumcheckProof,
    product_terms,
    prove_sumcheck,
    verify_sumcheck,
    verify_sumcheck_rounds,
    wire_degree,
)
from ..obs import span as _span
from ..parallel.deadline import check_deadline
from ..pcs.orion import OrionCommitment, OrionEvalProof, OrionPCS
from ..r1cs.system import R1CS
from .matrixeval import combined_matrix_eval
from .sumcheck1 import (
    CONSTRAINT_TERMS,
    SatisfiedRound0,
    finish_constraint_sumcheck,
    prove_constraint_sumcheck,
)

#: Paper value (Sec. VII-A): "we run all sumchecks 3 times".
DEFAULT_REPETITIONS = 3

#: Sumcheck 2's term list: M~(rx, y) * z~(y) over the tables (m_row, z).
SUMCHECK2_TERMS = product_terms(2)


@dataclass
class SpartanParams:
    """Protocol knobs; defaults give the paper's 128-bit configuration."""

    repetitions: int = DEFAULT_REPETITIONS


@dataclass
class RepetitionProof:
    """One independently-challenged run of the sumcheck chain."""

    sc1_round_evals: List[List[int]]
    va: int
    vb: int
    vc: int
    sc2: SumcheckProof
    w_eval: int                      # claimed w~(ry[1:])
    pcs_proof: OrionEvalProof


@dataclass
class SpartanProof:
    """A complete Spartan+Orion proof."""

    witness_commitment: OrionCommitment
    repetitions: List[RepetitionProof]


class SpartanProver:
    """Generates Spartan+Orion proofs for a fixed R1CS instance."""

    def __init__(self, r1cs: R1CS, pcs: Optional[OrionPCS] = None,
                 params: Optional[SpartanParams] = None):
        self.r1cs = r1cs
        self.pcs = pcs or OrionPCS()
        self.params = params or SpartanParams()

    def prove(self, public: np.ndarray, witness: np.ndarray,
              transcript: Optional[Transcript] = None) -> SpartanProof:
        """Prove knowledge of ``witness`` satisfying the R1CS on ``public``."""
        tr = transcript or Transcript()
        r1cs = self.r1cs
        log_n = r1cs.shape.log_size
        # Cooperative cancellation (repro.parallel.deadline): the kernels
        # are long uninterruptible numpy calls, so the deadline is checked
        # at every phase boundary — witness assembly, SpMV, commit, each
        # repetition's sumchecks and PCS opening.
        check_deadline("spartan.witness")
        with _span("spartan.witness", "other", n=1 << log_n):
            z = r1cs.assemble_z(public, witness)
        # One SpMV pass serves both the satisfaction check and sumcheck #1
        # (is_satisfied would recompute all three products).
        check_deadline("spartan.spmv")
        with _span("spartan.spmv", "spmv", n=1 << log_n):
            az, bz, cz = r1cs.products(z)
        # Raises on an unsatisfying witness, before any transcript absorb;
        # what round 0 of sumcheck #1 reads off (az, bz, cz) is the same in
        # every repetition, so it is built here, once.
        round0 = SatisfiedRound0(az, bz, cz)
        wit_half = r1cs.split_z(z)[1]

        tr.absorb_array(b"spartan/public", np.asarray(public, dtype=np.uint64))
        check_deadline("pcs.commit")
        commitment, state = self.pcs.commit(wit_half)
        tr.absorb_digest(b"spartan/witness-commitment", commitment.root)
        reps = [self._prove_repetition(rep, tr, z, (az, bz, cz), round0,
                                       state, commitment)
                for rep in range(self.params.repetitions)]
        return SpartanProof(commitment, reps)

    def _prove_repetition(self, rep: int, tr: Transcript, z: np.ndarray,
                          products, round0: SatisfiedRound0, state,
                          commitment: OrionCommitment) -> RepetitionProof:
        """One run of the sumcheck chain.  Every array it makes is dropped
        as soon as its one reader is done with it: eq(rx) exists only as
        the transposed product's scaled input, and the combined row
        M~(rx, .) only until sumcheck #2 has folded it; nothing of one
        repetition is held while the next runs."""
        r1cs, pcs = self.r1cs, self.pcs
        log_n = r1cs.shape.log_size
        label = b"spartan/rep%d" % rep
        check_deadline("spartan.rep%d" % rep)
        with _span("spartan.rep%d" % rep, "other", rep=rep):
            tau = tr.challenge_fields(label + b"/tau", log_n)
            # The eq(tau, .) factor is handled inside the sumcheck via its
            # tensor split (scalar prefix x static suffix tables) — the
            # full 2^L eq table is never materialized.
            with _span("spartan.sumcheck1", "sumcheck", rounds=log_n):
                sc1_rounds, (va, vb, vc), rx = prove_constraint_sumcheck(
                    tau, *products, tr, label + b"/sc1", round0=round0)

            r_a = tr.challenge_field(label + b"/ra")
            r_b = tr.challenge_field(label + b"/rb")
            r_c = tr.challenge_field(label + b"/rc")
            claim2 = (r_a * va + r_b * vb + r_c * vc) % MODULUS

            # Fused (r_a*A + r_b*B + r_c*C)^T eq(rx): one stacked SpMV
            # instead of three (equals combined_matrix_row on (A, B, C)).
            check_deadline("spartan.matrix_combine")
            with _span("spartan.matrix_combine", "spmv"):
                m_row = r1cs.combined_row((r_a, r_b, r_c), rx)
            with _span("spartan.sumcheck2", "sumcheck", rounds=log_n):
                sc2, ry = prove_sumcheck([m_row, z], tr, label + b"/sc2",
                                         claim=claim2, terms=SUMCHECK2_TERMS)
            del m_row

            # Open w~ at ry[1:] (ry[0] selects the witness half).  One row
            # combination gives both the claimed value and the opening's
            # evaluation row.
            check_deadline("pcs.open")
            w_point = ry[1:]
            row = pcs.eval_row(state, commitment, w_point)
            w_eval = pcs.evaluate_from_row(row, w_point, commitment.num_rows)
            tr.absorb_field(label + b"/w-eval", w_eval)
            pcs_proof = pcs.open(state, commitment, w_point,
                                 tr.fork(label + b"/pcs"), eval_row=row)
        return RepetitionProof(sc1_rounds, va, vb, vc, sc2, w_eval, pcs_proof)


class SpartanVerifier:
    """Checks Spartan+Orion proofs against the public R1CS instance."""

    def __init__(self, r1cs: R1CS, pcs: Optional[OrionPCS] = None,
                 params: Optional[SpartanParams] = None):
        self.r1cs = r1cs
        self.pcs = pcs or OrionPCS()
        self.params = params or SpartanParams()

    def verify(self, public: np.ndarray, proof: SpartanProof,
               transcript: Optional[Transcript] = None) -> bool:
        """Check a proof against the public inputs.

        ``proof`` is untrusted: structure is validated before any
        transcript absorption or arithmetic, so malformed proofs are
        rejected with ``False`` rather than an uncaught exception.
        """
        tr = transcript or Transcript()
        r1cs = self.r1cs
        log_n = r1cs.shape.log_size
        try:
            public = np.asarray(public, dtype=np.uint64)
        except (TypeError, ValueError, OverflowError):
            return False
        if public.ndim != 1 or len(public) != r1cs.shape.num_public:
            return False
        if public.size and int(public.max()) >= MODULUS:
            return False
        if not self._proof_well_formed(proof, log_n):
            return False

        tr.absorb_array(b"spartan/public", public)
        tr.absorb_digest(b"spartan/witness-commitment",
                         proof.witness_commitment.root)

        openings = []
        for rep, rp in enumerate(proof.repetitions):
            label = b"spartan/rep%d" % rep
            va, vb, vc = int(rp.va), int(rp.vb), int(rp.vc)
            tau = tr.challenge_fields(label + b"/tau", log_n)

            # Sumcheck 1: claim 0, eq(tau, x) times its term list.
            res1 = verify_sumcheck_rounds(
                0, rp.sc1_round_evals, wire_degree(CONSTRAINT_TERMS, eq=True),
                tr, label + b"/sc1")
            if not res1.ok or len(res1.challenges) != log_n:
                return False
            rx = res1.challenges
            tr.absorb_fields(label + b"/sc1/final", [va, vb, vc])
            eq_at_rx = eq_eval(tau, rx)
            if not finish_constraint_sumcheck(res1.final_claim, eq_at_rx,
                                              va, vb, vc):
                return False

            r_a = tr.challenge_field(label + b"/ra")
            r_b = tr.challenge_field(label + b"/rb")
            r_c = tr.challenge_field(label + b"/rc")
            claim2 = (r_a * va + r_b * vb + r_c * vc) % MODULUS

            # Sumcheck 2, final check included: its term list at the final
            # table values (m_val, z_val).
            res2 = verify_sumcheck(
                claim2, rp.sc2, wire_degree(SUMCHECK2_TERMS), tr,
                label + b"/sc2", terms=SUMCHECK2_TERMS)
            if (not res2.ok or len(res2.challenges) != log_n
                    or len(rp.sc2.final_values) != 2):
                return False
            ry = res2.challenges
            m_val, z_val = (int(v) for v in rp.sc2.final_values)

            # Check m_val directly against the public matrices.
            expected_m = combined_matrix_eval(r1cs.a, r1cs.b, r1cs.c,
                                              r_a, r_b, r_c, rx, ry)
            if m_val % MODULUS != expected_m:
                return False

            # Check z_val = (1 - ry0) * pub~(ry[1:]) + ry0 * w~(ry[1:]).
            w_point = ry[1:]
            w_eval = int(rp.w_eval)
            tr.absorb_field(label + b"/w-eval", w_eval)
            pub_eval = mle_eval_head(public, w_point)
            ry0 = ry[0] % MODULUS
            expected_z = ((1 - ry0) * pub_eval + ry0 * w_eval) % MODULUS
            if z_val % MODULUS != expected_z:
                return False

            # The PCS opening of w~ at ry[1:], checked with the others below.
            openings.append((w_point, w_eval, rp.pcs_proof,
                             tr.fork(label + b"/pcs")))
        # Every repetition opens the one witness commitment: one batch
        # checks what their openings share once.
        return self.pcs.verify_openings(proof.witness_commitment, openings)

    def _proof_well_formed(self, proof: SpartanProof, log_n: int) -> bool:
        """Structural validation of an untrusted proof object.

        Everything the verify loop touches is checked here first: claimed
        scalars are canonical integers, sumcheck containers are lists,
        the commitment geometry matches this instance, and the repetition
        count matches the preset.  Per-round polynomial shape is left to
        :func:`verify_sumcheck_rounds`, which rejects with ``False``.
        """
        if not isinstance(proof, SpartanProof):
            return False
        c = proof.witness_commitment
        if not OrionPCS._commitment_well_formed(c):
            return False
        if c.table_len != self.r1cs.shape.half:
            return False
        if c.num_rows != self.pcs.params.rows_for(c.table_len):
            return False
        if not isinstance(proof.repetitions, list):
            return False
        if len(proof.repetitions) != self.params.repetitions:
            return False
        for rp in proof.repetitions:
            if not isinstance(rp, RepetitionProof):
                return False
            if not all(_canonical_scalar(v)
                       for v in (rp.va, rp.vb, rp.vc, rp.w_eval)):
                return False
            if not isinstance(rp.sc1_round_evals, list):
                return False
            if not isinstance(rp.sc2, SumcheckProof):
                return False
            if not isinstance(rp.sc2.round_evals, list):
                return False
            if not isinstance(rp.sc2.final_values, list) or not all(
                    _canonical_scalar(v) for v in rp.sc2.final_values):
                return False
            if not isinstance(rp.pcs_proof, OrionEvalProof):
                return False
        return True


def _canonical_scalar(v) -> bool:
    """True for a canonical field element carried as a plain integer."""
    return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and 0 <= v < MODULUS)
