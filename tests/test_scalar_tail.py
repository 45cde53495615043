"""Small tables are Python ints (``multilinear/table.py``): every value
of ``SCALAR_TAIL`` computes the same field elements.

At 0 every table is a numpy array (the vector path as it was before the
scalar tail existed); at 2^30 every table is a list of ints, which makes
the sumchecks below loop-and-``%`` implementations — the slow,
obviously-right oracle the tiled kernels are held to.
"""

import hashlib
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import PAPER, prove, setup, verify
from repro.field import vector as fv
from repro.field.goldilocks import MODULUS
from repro.hashing import Transcript
from repro.multilinear import (SumcheckProof, eq_eval, eq_table, mle_eval,
                               prove_sumcheck, table, verify_sumcheck,
                               wire_degree)
from repro.spartan import SatisfiedRound0, prove_constraint_sumcheck, protocol

TAILS = (0, table.SCALAR_TAIL, 1 << 30)
P = np.uint64(MODULUS)


def with_tail(tail, fn):
    with mock.patch.object(table, "SCALAR_TAIL", tail):
        return fn()


def all_equal(results):
    return all(r == results[0] for r in results[1:])


def edgy(rng, n, noncanonical_tops=False):
    """n field elements, a quarter of them boundary values; optionally the
    top half (the minuends of round 0) holds representatives >= p, which
    the vector kernels accept there."""
    v = fv.rand_vector(n, rng)
    edges = np.array([0, 1, 2, MODULUS - 1, MODULUS - 2, 1 << 32],
                     dtype=np.uint64)
    pick = rng.random(n) < 0.25
    v[pick] = rng.choice(edges, size=int(pick.sum()))
    if noncanonical_tops and n > 1:
        top = v[n // 2:]
        lift = (rng.random(len(top)) < 0.25) & (top < np.uint64(2**32 - 1))
        top[lift] += P                       # same residue, >= p, < 2^64
    return v


def bits(b, width):
    return [(b >> (width - 1 - i)) & 1 for i in range(width)]


#: 1-3 terms of 1-3 factors over three tables, coefficients +-1.
term_lists = st.lists(
    st.tuples(st.sampled_from([1, -1]),
              st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple)),
    min_size=1, max_size=3)

#: tau coordinates: 0 / 1 put the ``denom == 0`` branch on that round.
tau_shapes = st.lists(st.sampled_from([0, 1, None]), min_size=9, max_size=9)


def draw_tau(rng, tau_shape, log_n):
    return [int(fv.rand_vector(1, rng)[0]) if t is None else t
            for t in tau_shape[:log_n]]


def term_sum(terms, values):
    """sum_k coef_k * prod_{j in F_k} values[j], a Python int."""
    return sum(c * prod(int(values[j]) for j in f) for c, f in terms)


def hypercube_claim(tables, terms, tau):
    """The sum a term list proves, [eq(tau, x)] included, in Python ints."""
    log_n = len(tables[0]).bit_length() - 1
    return sum((1 if tau is None else eq_eval(tau, bits(x, log_n)))
               * term_sum(terms, [t[x] for t in tables])
               for x in range(1 << log_n)) % MODULUS


def hypercube_rounds(tables, terms, tau, challenges):
    """Every round's g(0..D) of eq(tau, x) * terms as Python-int sums over
    the hypercube, the tables (eq's included) folded by the definition."""
    log_n = len(challenges)
    folded = [[int(v) for v in t] for t in tables]
    folded.append([eq_eval(tau, bits(x, log_n)) for x in range(1 << log_n)])
    rounds = []
    for r in challenges:
        half = len(folded[0]) // 2

        def at(t):
            return [[(f[i] + t * (f[half + i] - f[i])) % MODULUS
                     for i in range(half)] for f in folded]

        rounds.append([])
        for t in range(wire_degree(terms, eq=True) + 1):
            *vals, eq = at(t)
            rounds[-1].append(sum(eq[i] * term_sum(terms, [v[i] for v in vals])
                                  for i in range(half)) % MODULUS)
        folded = at(r)
    return rounds


class TestSumcheckDifferential:
    @given(st.integers(1, 4), st.integers(1, 9), st.integers(0, 2**32),
           st.booleans())
    def test_prove_sumcheck(self, degree, log_n, seed, with_claim):
        rng = np.random.default_rng(seed)
        # add() in the degree >= 3 sample loop takes one non-canonical
        # operand, not two, so only degrees 1-2 get representatives >= p.
        tables = [edgy(rng, 1 << log_n, noncanonical_tops=degree <= 2)
                  for _ in range(degree)]
        claim = None
        if with_claim:
            claim = sum(int(np.prod([int(t[i]) for t in tables], dtype=object))
                        for i in range(1 << log_n)) % MODULUS

        def run():
            tr = Transcript()
            proof, challenges = prove_sumcheck(tables, tr, b"sc", claim=claim)
            return (proof.round_evals, proof.final_values, challenges,
                    tr._state, tr._counter)

        results = [with_tail(t, run) for t in TAILS]
        assert all_equal(results)
        evals = results[0][0]
        assert len(evals) == log_n and all(len(e) == degree + 1 for e in evals)

    @given(st.integers(1, 9), st.integers(0, 2**32),
           st.lists(st.sampled_from([0, 1, None]), min_size=9, max_size=9),
           st.booleans())
    def test_prove_constraint_sumcheck(self, log_n, seed, tau_shape,
                                       satisfied):
        """Boolean tau coordinates put the ``denom == 0`` branch (inner(0)
        by a second vector evaluation) on scalar rounds too.  The generic
        call takes arbitrary tables (``cz`` random: the claim 0 is then
        false, the messages are still a function of the tables alone); on
        satisfied ones the shared round-0 object must change nothing."""
        rng = np.random.default_rng(seed)
        n = 1 << log_n
        az = edgy(rng, n, noncanonical_tops=True)
        bz = edgy(rng, n, noncanonical_tops=True)
        cz = fv.mul(az, bz) if satisfied else edgy(rng, n)
        tau = [int(fv.rand_vector(1, rng)[0]) if t is None else t
               for t in tau_shape[:log_n]]

        def run(shared=False):
            tr = Transcript()
            tables = (az, bz, cz)
            round0 = None
            if shared:      # the object owns (and overwrites) its tables
                tables = tuple(t.copy() for t in tables)
                round0 = SatisfiedRound0(*tables)
            out = prove_constraint_sumcheck(tau, *tables, tr, round0=round0)
            return out + (tr._state, tr._counter)

        results = [with_tail(t, run) for t in TAILS]
        if satisfied:
            results += [with_tail(t, lambda: run(shared=True)) for t in TAILS]
            assert results[0][0][0][:2] == [0, 0]       # g(0) = g(1) = 0
        assert all_equal(results)

    @given(term_lists, st.integers(1, 7), st.integers(0, 2**32),
           st.booleans(), tau_shapes)
    def test_term_lists(self, terms, log_n, seed, with_eq, tau_shape):
        """Any term list, with and without an eq factor, runs through the
        one engine; its claim (computed by the engine) and rounds are
        accepted by ``verify_sumcheck`` given the same terms."""
        rng = np.random.default_rng(seed)
        tables = [edgy(rng, 1 << log_n) for _ in range(3)]
        tau = draw_tau(rng, tau_shape, log_n) if with_eq else None

        def run():
            tr = Transcript()
            proof, challenges = prove_sumcheck(tables, tr, b"sc",
                                               terms=terms, eq=tau)
            return (proof.round_evals, proof.final_values, challenges,
                    tr._state, tr._counter)

        results = [with_tail(t, run) for t in TAILS]
        assert all_equal(results)
        evals, finals, challenges = results[0][:3]
        degree = wire_degree(terms, eq=with_eq)
        assert all(len(e) == degree + 1 for e in evals)
        assert finals == [mle_eval(t, challenges) for t in tables]
        res = verify_sumcheck(hypercube_claim(tables, terms, tau),
                              SumcheckProof(evals, finals), degree,
                              Transcript(), b"sc", terms=terms, eq=tau)
        assert res.ok and res.challenges == challenges, res.reason


class TestTensorSplitOracle:
    """The engine's eq factor (scalar prefix x degree-1 scalar x static
    suffix tables) against ``eq_table(tau)`` carried as one more table in
    every term, and against the hypercube sums."""

    @given(term_lists, st.integers(1, 6), st.integers(0, 2**32), tau_shapes)
    def test_split_eq_equals_a_materialised_eq_table(self, terms, log_n,
                                                     seed, tau_shape):
        rng = np.random.default_rng(seed)
        tables = [edgy(rng, 1 << log_n) for _ in range(3)]
        tau = draw_tau(rng, tau_shape, log_n)
        split, rx = prove_sumcheck(tables, Transcript(), b"sc", terms=terms,
                                   eq=tau)
        full, rx_full = prove_sumcheck(
            tables + [eq_table(tau)], Transcript(), b"sc",
            terms=[(c, f + (3,)) for c, f in terms])
        assert split.round_evals == full.round_evals and rx == rx_full
        assert full.final_values == split.final_values + [eq_eval(tau, rx)]
        assert split.round_evals == hypercube_rounds(tables, terms, tau, rx)


class TestGrandProductLayer:
    @pytest.mark.parametrize("log_n", [3, 9])
    def test_eq_left_right_is_a_term_list(self, log_n):
        """A grand-product layer, sum_x eq(tau, x) * left(x) * right(x),
        proves and verifies with nothing but its term list."""
        rng = np.random.default_rng(log_n)
        left, right = (fv.rand_vector(1 << log_n, rng) for _ in range(2))
        tau = [int(t) for t in fv.rand_vector(log_n, rng)]
        terms = [(1, (0, 1))]
        claim = mle_eval(fv.mul(left, right), tau)
        proof, rx = prove_sumcheck([left, right], Transcript(), b"gp",
                                   claim=claim, terms=terms, eq=tau)
        assert proof.final_values == [mle_eval(left, rx), mle_eval(right, rx)]

        def check(c):
            return verify_sumcheck(c, proof, wire_degree(terms, eq=True),
                                   Transcript(), b"gp", terms=terms, eq=tau)

        assert check(claim).ok and check(claim).challenges == rx
        assert not check((claim + 1) % MODULUS).ok


class TestEqAndMleAgainstTheDefinition:
    @given(st.integers(0, 12), st.integers(0, 2**32))
    def test_eq_table_is_the_product(self, num_vars, seed):
        rng = np.random.default_rng(seed)
        point = [int(x) for x in edgy(rng, num_vars)]
        tables = [with_tail(t, lambda: eq_table(point)) for t in TAILS]
        for tbl in tables:
            assert tbl.dtype == np.uint64 and tbl.shape == (1 << num_vars,)
            assert (tbl == tables[0]).all()
        for b in rng.integers(0, 1 << num_vars, size=64):
            assert int(tables[0][b]) == eq_eval(point, bits(int(b), num_vars))

    @given(st.integers(0, 12), st.integers(0, 2**32))
    def test_mle_eval_is_the_eq_weighted_sum(self, num_vars, seed):
        rng = np.random.default_rng(seed)
        point = [int(x) for x in edgy(rng, num_vars)]
        tbl = edgy(rng, 1 << num_vars, noncanonical_tops=True)
        expected = sum(int(v) * eq_eval(point, bits(b, num_vars))
                       for b, v in enumerate(tbl)) % MODULUS
        if num_vars == 0:
            expected = int(tbl[0])          # no fold: the entry as given
        for tail in TAILS:
            assert with_tail(tail, lambda: mle_eval(tbl, point)) == expected


def _statement(name):
    from repro.workloads import synthetic_r1cs
    from repro.workloads.registry import build_workload

    if name == "synthetic-2p12":
        return synthetic_r1cs(12)
    return build_workload(name)[1].compile()


class TestWholeProofBytes:
    @pytest.mark.parametrize("name", ["litmus", "synthetic-2p12"])
    def test_proof_bytes_do_not_depend_on_the_tail(self, name):
        r1cs, public, witness = _statement(name)
        pk, vk = setup(r1cs, PAPER)

        def run():
            bundle = prove(pk, public, witness, seed=7, circuit_id=name)
            assert verify(vk, bundle)
            return hashlib.sha256(bundle.to_bytes()).hexdigest()

        assert len({with_tail(t, run) for t in TAILS}) == 1

    @pytest.mark.parametrize("name", ["litmus", "sha", "synthetic-2p12"])
    def test_proof_bytes_do_not_depend_on_the_round0_object(self, name):
        """``prove`` hands every repetition one ``SatisfiedRound0``; with
        the keyword dropped each repetition builds round 0 itself, from
        products recomputed here (the object has written its differences
        over the top halves of the ones ``prove`` gave it)."""
        r1cs, public, witness = _statement(name)
        pk, _vk = setup(r1cs, PAPER)
        products = r1cs.products(r1cs.assemble_z(public, witness))
        calls = []

        def generic(tau, az, bz, cz, *args, round0):
            calls.append(round0)
            assert all(t is held for t, held in zip((az, bz, cz),
                                                    round0.tables))
            return prove_constraint_sumcheck(tau, *products, *args)

        shared = prove(pk, public, witness, seed=7).to_bytes()
        with mock.patch.object(protocol, "prove_constraint_sumcheck", generic):
            assert prove(pk, public, witness, seed=7).to_bytes() == shared
        assert len(calls) == 3 and calls[0] is not None
        assert all(c is calls[0] for c in calls)
