"""Spartan's first sumcheck: the cubic "constraint" sumcheck.

Proves  sum_{x in {0,1}^L}  eq(tau, x) * (Az~(x) * Bz~(x) - Cz~(x)) = 0,
which (for random tau) implies (A z) o (B z) = (C z), i.e. that the R1CS
is satisfied.  The per-round polynomial has degree 3, so each round sends
four evaluations.  This is the kernel NoCap's sumcheck DP (Listing 1)
plus recomputation optimization targets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..field import vector as fv
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


def _checked_tables(az, bz, cz) -> List[np.ndarray]:
    """The three tables as uint64 arrays (the same objects when they
    already are), or ``ValueError``."""
    tables = [np.asarray(t, dtype=np.uint64) for t in (az, bz, cz)]
    n = len(tables[0])
    if any(len(t) != n for t in tables) or n & (n - 1):
        raise ValueError("tables must share a power-of-two length")
    return tables


def _round_terms(tables):
    """What a round reads off its three tables: the halves with the
    leading variable at 0 and at 1, the ``top - bottom`` differences and
    dA o dB (the terms of the quadratic's leading coefficient)."""
    bottoms, tops = zip(*(tb.halves(t) for t in tables))
    diffs = [tb.sub(tp, bt) for tp, bt in zip(tops, bottoms)]
    return bottoms, tops, diffs, tb.mul(diffs[0], diffs[1])


class SatisfiedRound0:
    """Round 0's terms of a SATISFIED system, built once per proof.

    Every repetition of sumcheck 1 starts from the same ``az, bz, cz``
    (Sec. VII-A runs the sumchecks 3 times over ONE witness), so what
    round 0 derives from them before any challenge exists is shared.
    Construction performs the satisfaction check and raises ``ValueError``
    when ``az o bz != cz``: holding an instance is therefore the licence
    for round 0's shortcut ``inner(1) = <suffix, 0> = 0``, i.e.
    ``g(0) = g(1) = 0``, without the mul + sub + dot over n/2 entries.
    Holds 2n words beyond the tables (three differences and dA o dB).
    """

    def __init__(self, az: np.ndarray, bz: np.ndarray, cz: np.ndarray):
        self.tables = _checked_tables(az, bz, cz)
        a, b, c = self.tables
        if (fv.mul(a, b) != c).any():
            raise ValueError("witness does not satisfy the constraint system")
        self.terms = _round_terms(self.tables)


def prove_constraint_sumcheck(
    tau: Sequence[int], az: np.ndarray, bz: np.ndarray, cz: np.ndarray,
    transcript: Transcript, label: bytes = b"spartan/sc1", *,
    round0: Optional[SatisfiedRound0] = None,
) -> Tuple[List[List[int]], Tuple[int, int, int], List[int]]:
    """Prover for sum_x eq(tau, x) * (az(x)*bz(x) - cz(x)) (claim = 0).

    Returns (round_evals, (va, vb, vc), challenges) where va/vb/vc are the
    claimed MLE values of Az, Bz, Cz at the challenge point rx.

    ``round0`` (optional) is a :class:`SatisfiedRound0` built from these
    same three arrays; with it round 0 reuses the shared terms and sends
    ``g(0) = g(1) = 0`` unevaluated.  Without it the call takes arbitrary
    tables and builds the same terms itself; the messages are identical.

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
    tables = _checked_tables(az, bz, cz)
    if round0 is not None and not all(
            t is held for t, held in zip(tables, round0.tables)):
        raise ValueError("round0 was built from other tables")
    num_rounds = len(tables[0]).bit_length() - 1
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
        shared = rnd == 0 and round0 is not None
        bottoms, tops, diffs, lead_terms = (round0.terms if shared
                                            else _round_terms(tables))
        suffix = suffixes[rnd]
        t_r = taus[rnd]

        def inner(az_t, bz_t, cz_t):
            # Non-canonical intermediates are exact: mul and dot accept
            # any representative, and sub tolerates one as minuend.
            return tb.dot(suffix, tb.sub(tb.mul(az_t, bz_t), cz_t))

        # A satisfied system has az o bz == cz pointwise: <suffix, 0>.
        inner1 = 0 if shared else inner(*tops)
        g1 = c_prefix * t_r % MODULUS * inner1 % MODULUS
        g0 = (current - g1) % MODULUS
        denom = c_prefix * (1 - t_r) % MODULUS
        if denom:
            # g(0) = denom * inner(0), so inner(0) comes for free from the
            # claim invariant instead of a second vector evaluation.
            inner0 = g0 * pow(denom, MODULUS - 2, MODULUS) % MODULUS
        else:
            inner0 = inner(*bottoms)
        lead = tb.dot(suffix, lead_terms)
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
