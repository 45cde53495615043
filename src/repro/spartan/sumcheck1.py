"""Spartan's first sumcheck, sum_x eq(tau, x) * (Az~(x) Bz~(x) - Cz~(x))
= 0, which (for random tau) implies (A z) o (B z) = (C z).  The engine
(:mod:`repro.multilinear.sumcheck`) runs it; Spartan's part is the term
list, round 0 of a satisfied system and the final check.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..field import vector as fv
from ..field.goldilocks import MODULUS
from ..hashing.transcript import Transcript
from ..multilinear import table as tb
from ..multilinear.sumcheck import as_tables, evaluate_terms, prove_sumcheck

#: Az * Bz - Cz over the tables (Az, Bz, Cz), under an eq(tau, x) factor.
CONSTRAINT_TERMS = ((1, (0, 1)), (-1, (2,)))


class SatisfiedRound0:
    """Round 0's reads of a SATISFIED system, built once per proof and
    shared by the repetitions (Sec. VII-A: 3 runs over ONE witness).

    Construction performs the satisfaction check (``ValueError`` when
    ``az o bz != cz``), so an instance licenses round 0's ``inner(1) =
    <suffix, 0> = 0``, i.e. ``g(0) = g(1) = 0``, without the mul + sub +
    dot over n/2 entries.

    The instance owns the three products from then on: each difference
    top - bottom is written over its table's top half, which round 0 of a
    degree-2 term list never reads again (it reads the bottoms, the
    differences and the fold's inputs only).  So the one new array is
    dA o dB, n/2 words; the caller must not read ``az`` / ``bz`` / ``cz``
    afterwards except through :func:`prove_constraint_sumcheck` with this
    object.
    """

    def __init__(self, az: np.ndarray, bz: np.ndarray, cz: np.ndarray):
        self.tables = as_tables((az, bz, cz))
        a, b, c = self.tables
        if (fv.mul(a, b) != c).any():
            raise ValueError("witness does not satisfy the constraint system")
        bottoms, tops = zip(*(tb.halves(t) for t in self.tables))
        diffs = [tb.sub_into(tp, bt) for tp, bt in zip(tops, bottoms)]
        # The engine's round 0: the reads, the one top-degree term's
        # differences dA o dB, and inner(1) = 0.
        self.terms = (bottoms, diffs, (1, [tb.mul(diffs[0], diffs[1])]), 0)


def prove_constraint_sumcheck(
    tau: Sequence[int], az: np.ndarray, bz: np.ndarray, cz: np.ndarray,
    transcript: Transcript, label: bytes = b"spartan/sc1", *,
    round0: Optional[SatisfiedRound0] = None,
) -> Tuple[List[List[int]], Tuple[int, int, int], List[int]]:
    """A wrapper: :data:`CONSTRAINT_TERMS` with ``eq=tau`` and claim 0 on
    the engine.  Returns (round_evals, (va, vb, vc), rx).  ``round0``, a
    :class:`SatisfiedRound0` of these same arrays (whose top halves it has
    overwritten), shares round 0's reads; without it the call takes any
    tables and sends the same messages."""
    tables = as_tables((az, bz, cz))
    if round0 is not None and not all(
            t is held for t, held in zip(tables, round0.tables)):
        raise ValueError("round0 was built from other tables")
    proof, rx = prove_sumcheck(
        tables, transcript, label, claim=0, terms=CONSTRAINT_TERMS, eq=tau,
        round0=None if round0 is None else round0.terms)
    return proof.round_evals, tuple(proof.final_values), rx


def finish_constraint_sumcheck(
    reduced_claim: int, eq_at_rx: int, va: int, vb: int, vc: int,
) -> bool:
    """Verifier's final check: eq(tau, rx) * (va*vb - vc) == reduced claim."""
    return (evaluate_terms(CONSTRAINT_TERMS, (va, vb, vc), eq_at_rx)
            == reduced_claim % MODULUS)
