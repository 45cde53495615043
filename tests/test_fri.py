"""Tests for the FRI low-degree test (the STARK-family primitive)."""

import copy

import numpy as np
import pytest

from repro.field import vector as fv
from repro.field.goldilocks import MODULUS
from repro.hashing import Transcript
from repro.hashing.merkle import MerkleTree, open_many
from repro.ntt.roots import primitive_root
from repro.pcs import fri
from repro.pcs.fri import (
    FriParams,
    FriProof,
    FriProver,
    FriQueryStep,
    FriVerifier,
    _fold_layer,
    fri_prover_tasks,
)

PARAMS = FriParams(num_queries=20)


def _roundtrip(n, rng, params=PARAMS):
    coeffs = [int(x) for x in fv.rand_vector(n, rng)]
    proof = FriProver(params).prove(coeffs, Transcript())
    return coeffs, proof


class TestFolding:
    def test_fold_preserves_low_degree(self, rng):
        """Folding a degree-<n codeword yields a degree-<n/2 codeword."""
        from repro.ntt.polymul import poly_eval_domain
        from repro.ntt.radix2 import intt

        coeffs = fv.rand_vector(16, rng)
        values = poly_eval_domain(coeffs, 64)
        beta = 12345
        folded = _fold_layer(values, beta, primitive_root(64))
        back = intt(folded)
        assert not back[8:].any()  # degree < 8

    def test_fold_combines_even_odd(self, rng):
        """folded = even_part + beta * odd_part as polynomials."""
        from repro.ntt.polymul import poly_eval_domain
        from repro.ntt.radix2 import intt

        coeffs = fv.rand_vector(8, rng)
        values = poly_eval_domain(coeffs, 32)
        beta = 999
        folded_coeffs = intt(_fold_layer(values, beta, primitive_root(32)))
        for k in range(4):
            want = (int(coeffs[2 * k]) + beta * int(coeffs[2 * k + 1])) % MODULUS
            assert int(folded_coeffs[k]) == want


class TestRoundtrip:
    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_honest_prover_accepted(self, n, rng):
        _, proof = _roundtrip(n, rng)
        assert FriVerifier(PARAMS).verify(n, proof, Transcript())

    def test_non_power_of_two_degree(self, rng):
        coeffs = [int(x) for x in fv.rand_vector(20, rng)]  # pads to 32
        proof = FriProver(PARAMS).prove(coeffs, Transcript())
        assert FriVerifier(PARAMS).verify(20, proof, Transcript())

    def test_proof_size_accounting(self, rng):
        _, proof = _roundtrip(64, rng)
        assert proof.size_bytes() > 0
        fewer = FriParams(num_queries=5)
        _, small = _roundtrip(64, rng, fewer)
        assert small.size_bytes() < proof.size_bytes()

    def test_size_counts_roots_coefficients_steps_and_nodes(self, rng):
        """32 B per root, 8 B per final coefficient, 16 B per query step
        and 32 B per multiproof node; the opened positions are not counted
        (the verifier derives them from the transcript)."""
        _, proof = _roundtrip(64, rng)
        steps = sum(len(chain) for chain in proof.queries)
        nodes = sum(len(mp.nodes) for mp in proof.layer_openings)
        assert nodes > 0
        assert proof.size_bytes() == (32 * len(proof.layer_roots)
                                      + 8 * len(proof.final_coefficients)
                                      + 16 * steps + 32 * nodes)


def _challenges(proof, degree_bound, params=PARAMS):
    """(betas, query indices) the verifier derives for ``proof``."""
    transcript = Transcript()
    betas = []
    for root in proof.layer_roots:
        transcript.absorb_digest(b"fri/root", root)
        betas.append(transcript.challenge_field(b"fri/beta"))
    transcript.absorb_fields(b"fri/final", proof.final_coefficients)
    indices = transcript.challenge_indices(
        b"fri/queries", params.num_queries, params.blowup * degree_bound)
    return betas, indices


class TestMultiproofOpenings:
    """Each layer's queried positions are one Merkle multiproof, as
    Orion opens its columns."""

    def test_layer_ships_fewer_nodes_than_its_paths(self, rng):
        _, proof = _roundtrip(1 << 10, rng, FriParams())
        size = FriParams().blowup << 10
        for opening in proof.layer_openings:
            depth = size.bit_length() - 1
            assert len(opening.nodes) < len(opening.indices) * depth
            size //= 2

    @pytest.mark.parametrize("mutation", ["no_opening", "indices_none",
                                          "indices_shifted", "nodes_none",
                                          "node_dropped", "node_added"])
    def test_malformed_layer_opening_rejected(self, rng, mutation):
        _, proof = _roundtrip(64, rng)
        bad = copy.deepcopy(proof)
        opening = bad.layer_openings[0]
        if mutation == "no_opening":
            bad.layer_openings[0] = None
        elif mutation == "indices_none":
            opening.indices = None
        elif mutation == "indices_shifted":
            opening.indices = [i + 1 for i in opening.indices]
        elif mutation == "nodes_none":
            opening.nodes = None
        elif mutation == "node_dropped":
            opening.nodes.pop()
        else:
            opening.nodes.append(b"\x00" * 32)
        assert not FriVerifier(PARAMS).verify(64, bad, Transcript())

    @pytest.mark.parametrize("other", ["larger", "smaller"])
    def test_multiproof_bound_to_its_layer_size(self, rng, monkeypatch,
                                                other):
        """Checked against the leaf count of the layer before (twice the
        size) or after (half), every layer's multiproof fails."""
        _, proof = _roundtrip(64, rng)
        real = fri.verify_many
        sizes = []

        def recording(root, digests, opening, num_leaves):
            sizes.append(num_leaves)
            return real(root, digests, opening, num_leaves=num_leaves)

        monkeypatch.setattr(fri, "verify_many", recording)
        assert FriVerifier(PARAMS).verify(64, proof, Transcript())
        assert sizes == [256, 128, 64, 32]
        for layer in range(len(sizes)):
            calls = []

            def misbound(root, digests, opening, num_leaves):
                if len(calls) == layer:
                    num_leaves = (num_leaves * 2 if other == "larger"
                                  else num_leaves // 2)
                calls.append(num_leaves)
                return real(root, digests, opening, num_leaves=num_leaves)

            monkeypatch.setattr(fri, "verify_many", misbound)
            assert not FriVerifier(PARAMS).verify(64, proof, Transcript())

    def test_two_queries_disagreeing_on_a_position_rejected(self, rng):
        """Two query indices ``half`` apart open the same two positions of
        every layer.  The second one's chain is replaced by a forged chain
        that satisfies every fold and the final polynomial; its values
        differ from the first query's at those positions, where only one
        of the two can match the Merkle tree."""
        half = PARAMS.blowup * 64 // 2
        for seed in range(40):
            coeffs = [int(x) for x in
                      fv.rand_vector(64, np.random.default_rng(seed))]
            proof = FriProver(PARAMS).prove(coeffs, Transcript())
            betas, indices = _challenges(proof, 64)
            classes = [i % half for i in indices]
            if len(set(classes)) < len(classes):
                break
        else:
            pytest.fail("no seed drew two queries half a domain apart")
        first = next(q for q, c in enumerate(classes)
                     if classes.count(c) > 1)
        second = classes.index(classes[first], first + 1)
        bad = copy.deepcopy(proof)
        bad.queries[second] = _forged_chain(indices[second], betas,
                                            proof.final_coefficients,
                                            PARAMS.blowup * 64)
        assert bad.queries[second] != proof.queries[first]
        assert not FriVerifier(PARAMS).verify(64, bad, Transcript())


def _forged_chain(idx, betas, final_coefficients, domain_size):
    """A query chain for ``idx`` that passes every fold check and ends
    on the final polynomial, with values no honest layer holds: arbitrary
    at layer 0, the carried fold value plus a free slot after it, and the
    last layer's free slot solved for the final evaluation."""
    chain, carried = [], None
    i, size, gen = idx, domain_size, primitive_root(domain_size)
    for layer, beta in enumerate(betas):
        half = size // 2
        entering = i
        i %= half
        x_inv = pow(pow(gen, i, MODULUS), MODULUS - 2, MODULUS)
        # fold = a * f(x) + b * f(-x), a = (1 + beta/x) / 2, b = (1 - beta/x) / 2
        a = (1 + beta * x_inv) * fri._INV2 % MODULUS
        b = (1 - beta * x_inv) * fri._INV2 % MODULUS
        value, sibling = 12345 + layer, 67890 + layer
        if carried is not None:
            if entering < half:
                value = carried
            else:
                sibling = carried
        if layer == len(betas) - 1:
            point = pow(gen * gen % MODULUS, i, MODULUS)
            target = 0
            for c in reversed(final_coefficients):
                target = (target * point + c) % MODULUS
            if carried is None or entering < half:
                sibling = (target - a * value) * pow(b, MODULUS - 2,
                                                     MODULUS) % MODULUS
            else:
                value = (target - b * sibling) * pow(a, MODULUS - 2,
                                                     MODULUS) % MODULUS
        carried = (a * value + b * sibling) % MODULUS
        chain.append(FriQueryStep(value, sibling))
        size, gen = half, gen * gen % MODULUS
    return chain


class TestRejections:
    def test_wrong_degree_claim(self, rng):
        _, proof = _roundtrip(64, rng)
        assert not FriVerifier(PARAMS).verify(32, proof, Transcript())
        assert not FriVerifier(PARAMS).verify(128, proof, Transcript())

    def test_tampered_final_coefficients(self, rng):
        _, proof = _roundtrip(64, rng)
        bad = copy.deepcopy(proof)
        bad.final_coefficients[0] = (bad.final_coefficients[0] + 1) % MODULUS
        assert not FriVerifier(PARAMS).verify(64, bad, Transcript())

    def test_tampered_layer_value(self, rng):
        _, proof = _roundtrip(64, rng)
        bad = copy.deepcopy(proof)
        bad.queries[3][0].value = (bad.queries[3][0].value + 1) % MODULUS
        assert not FriVerifier(PARAMS).verify(64, bad, Transcript())

    def test_tampered_sibling(self, rng):
        _, proof = _roundtrip(64, rng)
        bad = copy.deepcopy(proof)
        bad.queries[0][0].sibling = (bad.queries[0][0].sibling + 1) % MODULUS
        assert not FriVerifier(PARAMS).verify(64, bad, Transcript())

    def test_tampered_root(self, rng):
        _, proof = _roundtrip(64, rng)
        bad = copy.deepcopy(proof)
        bad.layer_roots[0] = b"\x00" * 32
        assert not FriVerifier(PARAMS).verify(64, bad, Transcript())

    def test_missing_layer(self, rng):
        _, proof = _roundtrip(64, rng)
        bad = copy.deepcopy(proof)
        bad.layer_roots.pop()
        assert not FriVerifier(PARAMS).verify(64, bad, Transcript())

    def test_high_degree_cheater_caught(self, rng):
        """A prover committing to a *random* word (far from low-degree)
        and truncating the final coefficients is caught by the queries."""
        p = PARAMS
        domain_size = p.blowup * 64
        values = fv.rand_vector(domain_size, rng)  # not a codeword

        # Replay the prover's commit phase on the bogus word.
        transcript = Transcript()
        layers, trees, roots = [], [], []
        gen = primitive_root(domain_size)
        current = values
        bound = 64
        while bound > p.stop_degree:
            tree = MerkleTree.from_columns(current[None, :])
            layers.append(current)
            trees.append(tree)
            roots.append(tree.root)
            transcript.absorb_digest(b"fri/root", tree.root)
            beta = transcript.challenge_field(b"fri/beta")
            current = _fold_layer(current, beta, gen)
            gen = gen * gen % MODULUS
            bound //= 2
        from repro.ntt.radix2 import intt

        final = [int(c) for c in intt(current)[: p.stop_degree]]  # truncated!
        transcript.absorb_fields(b"fri/final", final)
        indices = transcript.challenge_indices(b"fri/queries",
                                               p.num_queries, domain_size)
        queries, positions = [], [set() for _ in layers]
        for idx in indices:
            chain, i = [], idx
            for layer, opened in zip(layers, positions):
                half = len(layer) // 2
                i %= half
                chain.append(FriQueryStep(int(layer[i]), int(layer[i + half])))
                opened.update((i, i + half))
            queries.append(chain)
        openings = [open_many(tree, opened)
                    for tree, opened in zip(trees, positions)]
        forged = FriProof(roots, final, queries, openings)
        assert not FriVerifier(p).verify(64, forged, Transcript())


class TestNoCapTasks:
    def test_task_families(self):
        tasks = fri_prover_tasks(1 << 20)
        fams = {t.family for t in tasks}
        assert fams == {"rs_encode", "merkle"}

    def test_costs_scale(self):
        small = sum(t.hash_elements for t in fri_prover_tasks(1 << 16))
        large = sum(t.hash_elements for t in fri_prover_tasks(1 << 20))
        assert large > 10 * small

    def test_simulates_on_nocap(self):
        from repro.nocap import NoCapSimulator

        tasks = fri_prover_tasks(1 << 22)
        report = NoCapSimulator().simulate_tasks(tasks, 1 << 22)
        assert report.total_seconds > 0
        assert report.time_by_family["merkle"] > 0


class TestDegenerateBound:
    def test_degree_at_stop_threshold(self, rng):
        """degree_bound == stop_degree: no fold layers; the coefficients
        are the message and the proof is trivially accepted."""
        coeffs = [int(x) for x in fv.rand_vector(PARAMS.stop_degree, rng)]
        proof = FriProver(PARAMS).prove(coeffs, Transcript())
        assert proof.layer_roots == []
        assert FriVerifier(PARAMS).verify(PARAMS.stop_degree, proof,
                                          Transcript())

    def test_degenerate_wrong_bound_rejected(self, rng):
        coeffs = [int(x) for x in fv.rand_vector(PARAMS.stop_degree, rng)]
        proof = FriProver(PARAMS).prove(coeffs, Transcript())
        # Claiming a larger bound requires layers that are absent.
        assert not FriVerifier(PARAMS).verify(64, proof, Transcript())
