"""Spartan's first sumcheck: the cubic "constraint" sumcheck.

Proves  sum_{x in {0,1}^L}  eq(tau, x) * (Az~(x) * Bz~(x) - Cz~(x)) = 0,
which (for random tau) implies (A z) o (B z) = (C z), i.e. that the R1CS
is satisfied.  The per-round polynomial has degree 3, so each round sends
four evaluations.  This is the kernel NoCap's sumcheck DP (Listing 1)
plus recomputation optimization targets.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..field.goldilocks import MODULUS
from ..field.poly import interpolate_eval
from ..hashing.transcript import Transcript
from ..multilinear import table as tb
from ..multilinear.mle import eq_suffix_tables
from ..obs.metrics import METRICS as _METRICS

DEGREE = 3


def _eq_scalar(a: int, t: int) -> int:
    """eq(a, t) = a*t + (1-a)(1-t) mod p for scalar arguments."""
    return (a * t + (1 - a) * (1 - t)) % MODULUS


def prove_constraint_sumcheck(
    tau: Sequence[int], az: np.ndarray, bz: np.ndarray, cz: np.ndarray,
    transcript: Transcript, label: bytes = b"spartan/sc1",
) -> Tuple[List[List[int]], Tuple[int, int, int], List[int]]:
    """Prover for sum_x eq(tau, x) * (az(x)*bz(x) - cz(x)) (claim = 0).

    Returns (round_evals, (va, vb, vc), challenges) where va/vb/vc are the
    claimed MLE values of Az, Bz, Cz at the challenge point rx.

    The eq factor is never carried as a fourth folded table.  Because
    eq(tau, x) tensors over the variables, in round ``rnd`` (with earlier
    variables bound to challenges r_j) it splits as

        eq(tau, (r, t, x_rest))
            = [prod_{j<rnd} eq(tau_j, r_j)] * eq(tau_rnd, t)
              * eq(tau_{rnd+1:}, x_rest),

    i.e. a running scalar prefix, a degree-1 scalar factor in the sample
    point t, and a STATIC suffix table that needs no per-round fold.  The
    remaining cubic g(t) is the scalar factor times a QUADRATIC inner sum
    inner(t) = sum_x suffix(x) * (az(t,x) * bz(t,x) - cz(t,x)).  One
    vector evaluation (t = 1) plus the leading coefficient
    sum_x suffix(x) * dA(x) * dB(x) (cz is linear in t and drops out of
    it) pin the quadratic per round: the t = 0 value follows from the
    running-claim invariant g(0) + g(1) = claim, and t = 2, 3 by
    extrapolation.  No table is ever extended to a sample point.  The
    wire format (four evaluations per round) is unchanged.
    """
    tables = [np.asarray(t, dtype=np.uint64) for t in (az, bz, cz)]
    n = len(tables[0])
    if any(len(t) != n for t in tables) or n & (n - 1):
        raise ValueError("tables must share a power-of-two length")
    num_rounds = n.bit_length() - 1
    taus = [int(t) % MODULUS for t in tau]
    if len(taus) != num_rounds:
        raise ValueError(f"need {num_rounds} eq coordinates, got {len(taus)}")
    _METRICS.inc("sumcheck.instances")
    _METRICS.inc("sumcheck.rounds", num_rounds)

    # suffixes[rnd] = eq_table(tau[rnd+1:]) (variable rnd+1 most
    # significant, matching the fold order): the tables eq_table(tau[1:])
    # passes through anyway, ~n/2 multiplies for all of them.
    suffixes = list(eq_suffix_tables(taus[1:]))[::-1]

    round_evals: List[List[int]] = []
    challenges: List[int] = []
    # Running claim (g_{rnd-1} interpolated at the challenge); 0 initially
    # for a satisfied system.
    current = 0
    # prod_{j<rnd} eq(tau_j, r_j): the bound-variable scalar prefix.
    c_prefix = 1
    xs = list(range(DEGREE + 1))
    for rnd in range(num_rounds):
        # Lists of ints once a half fits table.SCALAR_TAIL (the suffix
        # table of the same length already is one): same formulas.
        bottoms, tops = zip(*(tb.halves(t) for t in tables))
        diffs = [tb.sub(tp, bt) for tp, bt in zip(tops, bottoms)]
        suffix = suffixes[rnd]
        t_r = taus[rnd]

        def inner(az_t, bz_t, cz_t):
            # Non-canonical intermediates are exact: mul and dot accept
            # any representative, and sub tolerates one as minuend.
            return tb.dot(suffix, tb.sub(tb.mul(az_t, bz_t), cz_t))

        inner1 = inner(*tops)
        g1 = c_prefix * t_r % MODULUS * inner1 % MODULUS
        g0 = (current - g1) % MODULUS
        denom = c_prefix * (1 - t_r) % MODULUS
        if denom:
            # g(0) = denom * inner(0), so inner(0) comes for free from the
            # claim invariant instead of a second vector evaluation.
            inner0 = g0 * pow(denom, MODULUS - 2, MODULUS) % MODULUS
        else:
            inner0 = inner(*bottoms)
        lead = tb.dot(suffix, tb.mul(diffs[0], diffs[1]))
        # inner(t) = inner0 + (inner1 - inner0 - lead) * t + lead * t^2.
        inner2 = (2 * inner1 - inner0 + 2 * lead) % MODULUS
        inner3 = (3 * inner1 - 2 * inner0 + 6 * lead) % MODULUS
        evals = [g0, g1,
                 c_prefix * _eq_scalar(t_r, 2) % MODULUS * inner2 % MODULUS,
                 c_prefix * _eq_scalar(t_r, 3) % MODULUS * inner3 % MODULUS]
        transcript.absorb_fields(label + b"/round%d" % rnd, evals)
        r = transcript.challenge_field(label + b"/r%d" % rnd)
        challenges.append(r)
        current = interpolate_eval(xs, evals, r)
        tables = [tb.scale_add(bt, df, r) for bt, df in zip(bottoms, diffs)]
        c_prefix = c_prefix * _eq_scalar(t_r, r) % MODULUS
        round_evals.append(evals)

    va, vb, vc = int(tables[0][0]), int(tables[1][0]), int(tables[2][0])
    transcript.absorb_fields(label + b"/final", [va, vb, vc])
    return round_evals, (va, vb, vc), challenges


def finish_constraint_sumcheck(
    reduced_claim: int, eq_at_rx: int, va: int, vb: int, vc: int,
) -> bool:
    """Verifier's final check: eq(tau, rx) * (va*vb - vc) == reduced claim."""
    expected = eq_at_rx * ((va * vb - vc) % MODULUS) % MODULUS
    return expected == reduced_claim % MODULUS
