"""The sumcheck protocol: one engine for every sum of products of tables.

NoCap spends ~70% of its time here (Fig. 6a) on one sumcheck unit; one
prover runs every instance.  It proves, one variable per round,
sum_b [eq(tau, b)] * sum_k coef_k * prod_{j in F_k} P_j(b) = claim for a
term list ``[(coef_k, F_k), ...]`` (Listing 1's DP generalized): each round
sends its polynomial's values at t = 0..D and folds the tables by the
challenge.  Sumcheck 2 is one product term, sumcheck 1 eq * (A*B - C).
128-bit soundness over the 64-bit field comes from repetition (Sec.
VII-A: "we run all sumchecks 3 times").
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..field.goldilocks import MODULUS
from ..field.poly import interpolate_eval
from ..hashing.transcript import Transcript
from ..obs import count as _count
from . import table as tb
from .mle import eq_eval, eq_suffix_tables, eq_table

#: The field has 64-bit indices: no honest sumcheck runs more rounds.
MAX_VERIFY_ROUNDS = 64

#: ``[(coef, (table index, ...)), ...]``: sum_k coef_k * prod_j tables[j].
Terms = Sequence[Tuple[int, Tuple[int, ...]]]


@dataclass
class SumcheckProof:
    """Round polynomials (each as evaluations at t = 0..degree) plus the
    prover's claimed table values at the final random point."""

    round_evals: List[List[int]]
    final_values: List[int]


@dataclass
class SumcheckResult:
    """Verifier-side outcome: accept/reject plus the reduced claim."""

    ok: bool
    challenges: List[int]
    final_claim: int
    reason: str = ""


def product_terms(count: int) -> Terms:
    """The term list of the plain product of ``count`` tables."""
    return ((1, tuple(range(count))),)


def wire_degree(terms: Terms, eq: bool = False) -> int:
    """Round-polynomial degree: the widest term, plus one for eq."""
    return max(len(factors) for _, factors in terms) + bool(eq)


def evaluate_terms(terms: Terms, values, eq_value: int = 1) -> int:
    """Every sumcheck's final check: the term list at the claimed final
    values, times eq(tau, r) when the sum has an eq factor."""
    total = sum(c * prod(int(values[j]) for j in f) for c, f in terms)
    return eq_value * total % MODULUS


def as_tables(tables) -> List[np.ndarray]:
    """The tables as uint64 arrays (the same objects when they already
    are), or ``ValueError`` unless they share a power-of-two length."""
    tables = [np.asarray(t, dtype=np.uint64) for t in tables]
    n = len(tables[0])
    if any(len(t) != n for t in tables) or n == 0 or n & (n - 1):
        raise ValueError("tables must share a power-of-two length")
    return tables


def _pointwise(vectors):
    """Element-wise product, any representative: every consumer reduces."""
    out = vectors[0]
    for v in vectors[1:]:
        out = tb.mul(out, v)
    return out


def _combine(terms: Terms, tables):
    """(c, fs): the term sum over ``tables`` is c * prod_j fs[j].  One
    term keeps its factors apart; more are summed into one vector relative
    to the first coefficient — a lone table at +-1 by add / sub (exact on
    a non-canonical sum and a canonical table), the rest by scale_add."""
    (c0, first), rest = terms[0], terms[1:]
    if not rest:
        return c0, [tables[j] for j in first]
    acc, inv = _pointwise([tables[j] for j in first]), pow(c0, -1, MODULUS)
    for coef, f in rest:
        rel, term = coef * inv % MODULUS, _pointwise([tables[j] for j in f])
        if len(f) == 1 and rel in (1, MODULUS - 1):
            acc = (tb.add if rel == 1 else tb.sub)(acc, term)
        else:
            acc = tb.scale_add(acc, term, rel)
    return c0, [acc]


def _weighted(combined, weight) -> int:
    """sum_x weight(x) * c * prod_j fs[j](x), ``combined = (c, fs)``; the
    last vector enters through ``dot``, which reduces no term alone."""
    c, fs = combined
    *fs, z = list(fs) + ([] if weight is None else [weight])
    return c * (tb.dot(_pointwise(fs), z) if fs else tb.vsum(z)) % MODULUS


def prove_sumcheck(tables: Sequence[np.ndarray], transcript: Transcript,
                   label: bytes = b"sumcheck", claim: int | None = None, *,
                   terms: Optional[Terms] = None,
                   eq: Optional[Sequence[int]] = None,
                   round0=None) -> Tuple[SumcheckProof, List[int]]:
    """Prove the hypercube sum of [eq(``eq``, .)] times the term list over
    ``tables`` (default: their product).  Returns the proof (``final_values``
    = the folded tables, in order) and the challenges; tables are not
    modified.  A round takes each top - bottom difference ONCE and uses it
    for the inner sum at 2 <= t < d (d = the widest term; the tables at t
    are bottom + t * difference), for its leading coefficient (the
    top-degree terms over the differences, standing in for t = d: a
    degree-d polynomial's d-th finite difference is d! times it) and for
    the fold.  inner(1) is one evaluation, over the tops; inner(0) follows
    from the running claim g(0) + g(1) (``claim`` saves a pass).

    Memory: round 0 writes its differences into new arrays (n/2 words a
    table) and folds over them, so from round 1 on every table is the
    engine's own; each round then writes its differences over the tops,
    once inner(1) has read them, and folds over those, allocating no
    table.  The caller's tables are never written.

    ``eq=tau`` is never built or folded: in round ``rnd`` eq(tau, (r, t,
    x)) = [prod_{j<rnd} eq(tau_j, r_j)] * eq(tau_rnd, t) * eq(tau_{rnd+1:},
    x), a scalar prefix, a degree-1 scalar in t and a STATIC suffix table
    (``eq_suffix_tables``) weighting the inner sum.  inner(0) is g(0) over
    that scalar, or an evaluation when it is 0 (a boolean tau coordinate);
    g has degree d + 1, one more extrapolated point.

    ``round0 = (bottoms, diffs, inner1)`` supplies round 0's reads shared
    between calls: the tables' bottom halves, their differences top -
    bottom, and inner(1).  It needs a degree-2 term list (d = 2) and
    ``claim``: then round 0 reads no top half and no whole table, so a
    caller may have overwritten the tops (as
    :class:`repro.spartan.SatisfiedRound0` does with the differences).
    Round 0 then folds into new arrays: the shared reads are not written.
    """
    tables = as_tables(tables)
    rounds = len(tables[0]).bit_length() - 1
    terms = product_terms(len(tables)) if terms is None else terms
    if not terms or not all(c % MODULUS and f and all(
            0 <= j < len(tables) for j in f) for c, f in terms):
        raise ValueError("each term needs a non-zero coefficient and tables")
    taus = None if eq is None else [int(t) % MODULUS for t in eq]
    if taus is not None and len(taus) != rounds:
        raise ValueError(f"need {rounds} eq coordinates, got {len(taus)}")
    d, degree = wire_degree(terms), wire_degree(terms, eq is not None)
    if round0 is not None and (d != 2 or claim is None):
        raise ValueError("round0 needs a degree-2 term list and a claim")
    top_terms = [t for t in terms if len(t[1]) == d]
    # suffixes[rnd] = eq_table(tau[rnd+1:]), variable rnd+1 most
    # significant: the tables eq_table(tau[1:]) passes through anyway.
    suffixes = ([None] * rounds if taus is None
                else list(eq_suffix_tables(taus[1:]))[::-1])
    _count("sumcheck.instances")
    _count("sumcheck.rounds", rounds)
    if claim is None:
        claim = _weighted(_combine(terms, tables),
                          None if taus is None else eq_table(taus))
    current, prefix = claim % MODULUS, 1    # prefix: prod eq(tau_j, r_j)
    round_evals, challenges = [], []
    for rnd, weight in enumerate(suffixes):
        if rnd == 0 and round0 is not None:
            (bottoms, diffs, inner1), ours = round0, False      # d = 2
        else:
            bottoms, tops = zip(*(tb.halves(t) for t in tables))
            inner1, ours = _weighted(_combine(terms, tops), weight), True
            # The tops are read: past round 0 each difference goes over
            # its own (the engine's table), in round 0 into a new array.
            diffs = [(tb.sub_into if rnd else tb.sub)(tp, bt)
                     for tp, bt in zip(tops, bottoms)]
        # g(t) = scale[t] * inner(t): eq's prefix and degree-1 factor.
        scale = [1 if taus is None else prefix * eq_eval([taus[rnd]], [t])
                 % MODULUS for t in range(degree + 1)]
        g1 = scale[1] * inner1 % MODULUS
        g0 = (current - g1) % MODULUS
        inner = [g0 * pow(scale[0], -1, MODULUS) % MODULUS if scale[0]
                 else _weighted(_combine(terms, bottoms), weight), inner1]
        for t in range(2, d):
            inner.append(_weighted(_combine(terms, [
                tb.scale_add(bt, df, t) for bt, df in zip(bottoms, diffs)]),
                weight))
        # inner's m-th finite difference, sum_k (-1)^(m-k) C(m,k) inner(k),
        # is d! * lead at m = d and 0 at m = d + 1: solve for inner(m).
        for m in range(len(inner), degree + 1):
            top = 0 if m > d else factorial(d) * _weighted(
                _combine(top_terms, diffs), weight)
            inner.append((top - sum((-1) ** (m - k) * comb(m, k) * v
                                    for k, v in enumerate(inner))) % MODULUS)
        evals = [g0, g1] + [scale[t] * inner[t] % MODULUS
                            for t in range(2, degree + 1)]
        transcript.absorb_fields(label + b"/round%d" % rnd, evals)
        r = transcript.challenge_field(label + b"/r%d" % rnd)
        challenges.append(r)
        round_evals.append(evals)
        current = interpolate_eval(range(degree + 1), evals, r)
        # The fold goes over the engine's own differences.
        tables = [tb.scale_add(bt, df, r, out=df if ours else None)
                  for bt, df in zip(bottoms, diffs)]
        if taus is not None:
            prefix = prefix * eq_eval([taus[rnd]], [r]) % MODULUS

    final_values = [int(t[0]) for t in tables]
    transcript.absorb_fields(label + b"/final", final_values)
    return SumcheckProof(round_evals, final_values), challenges


def _well_formed_evals(evals, expected_len: int) -> bool:
    """``evals`` is a list of ``expected_len`` canonical field elements —
    the precondition for arithmetic and absorption on the verify path."""
    return (isinstance(evals, (list, tuple)) and len(evals) == expected_len
            and all(isinstance(v, (int, np.integer)) and type(v) is not bool
                    and 0 <= v < MODULUS for v in evals))


def verify_sumcheck_rounds(claim: int, round_evals: Sequence[Sequence[int]],
                           degree: int, transcript: Transcript,
                           label: bytes = b"sumcheck") -> SumcheckResult:
    """Check round consistency only, reducing ``claim`` to a claimed
    evaluation at the random point, which the caller checks against
    oracles, openings or :func:`evaluate_terms` at claimed values."""
    if not isinstance(round_evals, (list, tuple)):
        return SumcheckResult(False, [], 0, "round evaluations not a list")
    if len(round_evals) > MAX_VERIFY_ROUNDS:
        return SumcheckResult(False, [], 0,
                              f"{len(round_evals)} rounds exceeds the cap")
    current = claim % MODULUS
    challenges: List[int] = []
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
        current = interpolate_eval(range(degree + 1), evals, r)
    return SumcheckResult(True, challenges, current)


def verify_sumcheck(claim: int, proof: SumcheckProof, degree: int,
                    transcript: Transcript, label: bytes = b"sumcheck", *,
                    terms: Optional[Terms] = None,
                    eq: Optional[Sequence[int]] = None) -> SumcheckResult:
    """Verify the rounds and the final check: the term list (default: the
    product of all final values) at ``proof.final_values``, times
    eq(``eq``, challenges) when given, must equal the reduced claim.  The
    caller still ties each final value to its table (oracle or opening).
    """
    if not isinstance(proof, SumcheckProof):
        return SumcheckResult(False, [], 0, "not a SumcheckProof")
    rounds = verify_sumcheck_rounds(claim, proof.round_evals, degree,
                                    transcript, label)
    if not rounds.ok:
        return rounds
    challenges, current = rounds.challenges, rounds.final_claim
    values = proof.final_values
    if not _well_formed_evals(values, len(values) if isinstance(
            values, (list, tuple)) else -1):
        return SumcheckResult(False, challenges, current,
                              "malformed final values")
    transcript.absorb_fields(label + b"/final", values)
    terms = product_terms(len(values)) if terms is None else terms
    if (max((j for _, f in terms for j in f), default=-1) >= len(values)
            or eq is not None and len(eq) != len(challenges)):
        return SumcheckResult(False, challenges, current,
                              "final values do not fit the terms")
    eq_value = 1 if eq is None else eq_eval(eq, challenges)
    if evaluate_terms(terms, values, eq_value) != current:
        return SumcheckResult(False, challenges, current,
                              "final check mismatch")
    return SumcheckResult(True, challenges, current)
