"""The sumcheck protocol for products of multilinear polynomials.

This is the kernel NoCap spends ~70% of its time on (Fig. 6a).  The prover
convinces the verifier that  sum_{b in {0,1}^L} prod_j P_j(b) = claim,
one variable per round, sending a degree-k univariate polynomial each
round (as k+1 evaluations) and folding the tables by the verifier's
challenge — the dynamic-programming structure of Listing 1 generalized to
products (Spartan's first sumcheck has k = 3).

Fiat-Shamir makes it non-interactive; 128-bit soundness over the 64-bit
Goldilocks field is obtained by running independent repetitions
(Sec. VII-A: "we run all sumchecks 3 times").
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import List, Sequence, Tuple

import numpy as np

from ..field.goldilocks import MODULUS
from ..field.poly import interpolate_eval
from ..hashing.transcript import Transcript
from ..obs.metrics import METRICS as _METRICS
from . import table as tb

#: The field has 64-bit indices: no honest sumcheck runs more rounds.
MAX_VERIFY_ROUNDS = 64


@dataclass
class SumcheckProof:
    """Round polynomials (each as evaluations at t = 0..degree) plus the
    prover's claimed factor values at the final random point."""

    round_evals: List[List[int]]
    final_values: List[int]

    @property
    def num_rounds(self) -> int:
        return len(self.round_evals)

    def size_bytes(self) -> int:
        return 8 * (sum(len(r) for r in self.round_evals) + len(self.final_values))


@dataclass
class SumcheckResult:
    """Verifier-side outcome: accept/reject plus the reduced claim."""

    ok: bool
    challenges: List[int]
    final_claim: int
    reason: str = ""


def _product_sum(factors) -> int:
    """sum_x prod_j factors[j][x] mod p.

    Intermediate products stay non-canonical (any representative): the
    multiply is exact for arbitrary inputs, and the last factor goes in
    through ``dot``, whose terms are never reduced on their own.
    """
    if len(factors) == 1:
        return tb.vsum(factors[0])
    prod = factors[0]
    for vals in factors[1:-1]:
        prod = tb.mul(prod, vals)
    return tb.dot(prod, factors[-1])


def prove_sumcheck(tables: Sequence[np.ndarray], transcript: Transcript,
                   label: bytes = b"sumcheck",
                   claim: int | None = None) -> Tuple[SumcheckProof, List[int]]:
    """Run the prover for sum over the hypercube of prod_j tables[j].

    Returns the proof and the challenge vector (for chaining into later
    protocol steps).  Tables are not modified.

    Allocation-lean round structure: each round computes the top-bottom
    difference of every factor ONCE and reuses it for (a) every extension
    point 2 <= t < degree — reached incrementally by adding the
    difference, one vector add instead of a scalar multiply — (b) the
    round polynomial's leading coefficient sum_x prod_j diff_j(x), which
    stands in for the last sample point t = degree, and (c) the fold to
    the next round's (half-size) tables.  For degree 2 no sample is
    materialised at all.  No full-table copies are made; the input tables
    are only ever read.

    The round polynomial's value at 0 is never computed directly: the
    sumcheck invariant g(0) + g(1) = claim pins it to claim - g(1), and the
    reduced claim for the next round follows by interpolating g at the
    challenge.  Callers that already know the total (``claim``) therefore
    save one full evaluation pass per round; when omitted it costs one
    product-sum over the input tables.
    """
    tables = [np.asarray(t, dtype=np.uint64) for t in tables]
    n = len(tables[0])
    if any(len(t) != n for t in tables):
        raise ValueError("all factor tables must have equal length")
    if n == 0 or n & (n - 1):
        raise ValueError("table length must be a power of two")
    num_rounds = n.bit_length() - 1
    degree = len(tables)
    _METRICS.inc("sumcheck.instances")
    _METRICS.inc("sumcheck.rounds", num_rounds)
    current = (claim if claim is not None else _product_sum(tables)) % MODULUS

    xs = list(range(degree + 1))
    round_evals: List[List[int]] = []
    challenges: List[int] = []
    for rnd in range(num_rounds):
        # Lists of ints once a half fits table.SCALAR_TAIL: same formulas.
        bottoms, tops = zip(*(tb.halves(t) for t in tables))
        diffs = [tb.sub(tp, bt) for tp, bt in zip(tops, bottoms)]
        # Factor value at (t, b) is bottom + t*diff; t = 1 is a free read
        # and each further t adds diff to the previous samples.
        g1 = _product_sum(tops)
        evals = [(current - g1) % MODULUS, g1]
        if degree >= 2:
            samples = tops
            for _t_val in range(2, degree):
                samples = [tb.add(s, d) for s, d in zip(samples, diffs)]
                evals.append(_product_sum(samples))
            # g has degree d with leading coefficient sum_x prod_j diff_j,
            # so its d-th finite difference sum_k (-1)^(d-k) C(d,k) g(k)
            # is d! times that: solve for g(d).
            known = sum((-1) ** (degree - k) * comb(degree, k) * g
                        for k, g in enumerate(evals))
            evals.append((factorial(degree) * _product_sum(diffs) - known)
                         % MODULUS)
        transcript.absorb_fields(label + b"/round%d" % rnd, evals)
        r = transcript.challenge_field(label + b"/r%d" % rnd)
        challenges.append(r)
        current = interpolate_eval(xs, evals, r)
        # Fold with the precomputed diffs: bottom + r*diff, one fused pass.
        tables = [tb.scale_add(bt, df, r) for bt, df in zip(bottoms, diffs)]
        round_evals.append(evals)

    final_values = [int(t[0]) for t in tables]
    transcript.absorb_fields(label + b"/final", final_values)
    return SumcheckProof(round_evals, final_values), challenges


def _well_formed_evals(evals, expected_len: int) -> bool:
    """True when ``evals`` is a sequence of ``expected_len`` canonical
    field elements — the precondition for arithmetic and transcript
    absorption on the verify path."""
    if not isinstance(evals, (list, tuple)):
        return False
    if len(evals) != expected_len:
        return False
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               and 0 <= v < MODULUS for v in evals)


def verify_sumcheck_rounds(claim: int, round_evals: Sequence[Sequence[int]],
                           degree: int, transcript: Transcript,
                           label: bytes = b"sumcheck") -> SumcheckResult:
    """Check round-polynomial consistency only, reducing ``claim`` to a
    claimed evaluation at the random point.  The caller finishes the proof
    by checking that reduced claim against oracles (MLE evaluations, PCS
    openings, or a composite expression as in Spartan's first sumcheck).
    """
    if not isinstance(round_evals, (list, tuple)):
        return SumcheckResult(False, [], 0, "round evaluations not a list")
    if len(round_evals) > MAX_VERIFY_ROUNDS:
        return SumcheckResult(False, [], 0,
                              f"{len(round_evals)} rounds exceeds the cap")
    current = claim % MODULUS
    challenges: List[int] = []
    xs = list(range(degree + 1))
    for rnd, evals in enumerate(round_evals):
        if not _well_formed_evals(evals, degree + 1):
            return SumcheckResult(False, challenges, 0,
                                  f"round {rnd}: malformed evaluations")
        if (evals[0] + evals[1]) % MODULUS != current:
            return SumcheckResult(False, challenges, 0,
                                  f"round {rnd}: g(0)+g(1) != claim")
        transcript.absorb_fields(label + b"/round%d" % rnd, evals)
        r = transcript.challenge_field(label + b"/r%d" % rnd)
        challenges.append(r)
        current = interpolate_eval(xs, evals, r)
    return SumcheckResult(True, challenges, current)


def verify_sumcheck(claim: int, proof: SumcheckProof, degree: int,
                    transcript: Transcript,
                    label: bytes = b"sumcheck") -> SumcheckResult:
    """Verify round consistency and reduce the claim to a point evaluation.

    On success, ``final_claim`` equals the claimed value of the product at
    the challenge point; the caller must still check it against
    ``proof.final_values`` (or an oracle/PCS opening of each factor).
    """
    if not isinstance(proof, SumcheckProof):
        return SumcheckResult(False, [], 0, "not a SumcheckProof")
    rounds = verify_sumcheck_rounds(claim, proof.round_evals, degree,
                                    transcript, label)
    if not rounds.ok:
        return rounds
    challenges, current = rounds.challenges, rounds.final_claim

    if (not isinstance(proof.final_values, (list, tuple))
            or not _well_formed_evals(proof.final_values,
                                      len(proof.final_values))):
        return SumcheckResult(False, challenges, current,
                              "malformed final values")
    transcript.absorb_fields(label + b"/final", proof.final_values)
    # The factor-product at the challenge point must match the reduced claim.
    prod = 1
    for v in proof.final_values:
        prod = prod * (v % MODULUS) % MODULUS
    if prod != current:
        return SumcheckResult(False, challenges, current,
                              "final product mismatch")
    return SumcheckResult(True, challenges, current)


def sumcheck_cost(n: int, degree: int):
    """Operation counts of one sumcheck over a size-n table with
    ``degree`` factors (performance-model hook).

    This counts the paper's sample-point algorithm (Listing 1 generalized:
    every round polynomial evaluated at t = 0..degree), on purpose: it is
    what the NoCap model schedules.  :func:`prove_sumcheck` computes the
    same field elements with fewer vector passes (claim-derived g(0),
    leading coefficient instead of the last sample), which is a property
    of this host implementation, not of the modelled hardware.

    Per round over m remaining entries: for each of (degree+1) sample
    points and each factor, one mul + adds on m/2 entries, plus the
    product across factors and the reduction sum.  Folding costs one mul
    per entry per factor.  Traffic: each factor table is streamed once per
    round (read) and half is written back.
    """
    from ..opcount import OpCount

    cost = OpCount()
    m = n
    while m > 1:
        half = m // 2
        samples = degree + 1
        # factor evaluations at the sample points (t=0,1 are free reads)
        cost.mul += (samples - 2) * degree * half
        cost.add += (samples - 2) * degree * half * 2
        # cross-factor products and accumulation
        cost.mul += samples * (degree - 1) * half
        cost.add += samples * half
        # folding each factor table
        cost.mul += degree * half
        cost.add += degree * half * 2
        # traffic: read all factor tables, write back folded halves
        cost.mem_read_bytes += degree * m * 8
        cost.mem_write_bytes += degree * half * 8
        m = half
    return cost
