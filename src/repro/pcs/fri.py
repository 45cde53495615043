"""FRI: the Fast Reed-Solomon IOP of Proximity (Ben-Sasson et al.),
the low-degree test behind STARKs.

The paper argues NoCap generalizes beyond Spartan+Orion because *all*
hash-based schemes build on the same primitives — "hashing, NTTs, and
modular multiplies and adds" (Sec. IV-E, citing Brakedown and STARKs).
This module makes that concrete: a complete FRI prover/verifier over
Goldilocks whose inner loops are exactly NoCap's primitive operations
(an NTT to evaluate, vector multiply/add folds, Merkle hashing), plus a
task-cost hook so the simulator can price STARK-style provers.

Protocol sketch (commit phase, then query phase):

* Evaluate the degree-< n polynomial on a domain of size N = blowup * n
  (one NTT) and Merkle-commit the evaluations.
* Repeatedly *fold*: with verifier challenge beta, combine f(x) and
  f(-x) into a half-size codeword of half the degree bound,
      f'(x^2) = (f(x) + f(-x)) / 2  +  beta * (f(x) - f(-x)) / (2x),
  committing every layer, until the degree bound reaches ``stop_degree``;
  the final layer is sent in the clear as coefficients.
* Queries: for each random index, the verifier walks the layer chain,
  checking every fold against the opened values.  Each layer's opened
  positions, over all queries, are one Merkle multiproof — the opening
  format Orion uses for its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import VerificationError
from ..field import vector as fv
from ..field.goldilocks import MODULUS, inv
from ..hashing.fieldhash import hash_columns
from ..hashing.merkle import (MerkleMultiProof, MerkleTree, open_many,
                              verify_many)
from ..hashing.transcript import Transcript
from ..ntt.polymul import next_pow2, poly_eval_domain
from ..ntt.radix2 import intt
from ..ntt.roots import primitive_root
from ..obs import span as _span

DEFAULT_BLOWUP = 4
DEFAULT_QUERIES = 30
DEFAULT_STOP_DEGREE = 4

_INV2 = inv(2)


@dataclass
class FriParams:
    blowup: int = DEFAULT_BLOWUP
    num_queries: int = DEFAULT_QUERIES
    stop_degree: int = DEFAULT_STOP_DEGREE


@dataclass
class FriQueryStep:
    """One layer's opening for one query: the paired values."""

    value: int          # f(x) at the queried index
    sibling: int        # f(-x) at index + half


def _query_step_well_formed(step) -> bool:
    """Structural check for one untrusted query-chain step: canonical
    integer values."""
    if not isinstance(step, FriQueryStep):
        return False
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               and 0 <= v < MODULUS for v in (step.value, step.sibling))


@dataclass
class FriProof:
    layer_roots: List[bytes]
    final_coefficients: List[int]
    queries: List[List[FriQueryStep]]   # [query][layer]
    #: One multiproof per layer over every position the queries open there.
    layer_openings: List[MerkleMultiProof]

    def size_bytes(self) -> int:
        """Roots, final coefficients, 16 B per query step and 32 B per
        multiproof node (the opened positions follow from the transcript)."""
        return (32 * len(self.layer_roots)
                + 8 * len(self.final_coefficients)
                + 16 * sum(len(chain) for chain in self.queries)
                + 32 * sum(len(mp.nodes) for mp in self.layer_openings))


def _fold_layer(values: np.ndarray, beta: int, domain_gen: int) -> np.ndarray:
    """One FRI fold: N evaluations on <g> -> N/2 evaluations on <g^2>."""
    n = len(values)
    half = n // 2
    top = values[:half]
    bot = values[half:]  # f(-x): g^(i + N/2) = -g^i
    even = fv.mul_scalar(fv.add(top, bot), _INV2)
    # odd part: (f(x) - f(-x)) / (2x) with x = g^i.
    x_invs = fv.pow_vector(fv.powers(domain_gen, half), MODULUS - 2)
    odd = fv.mul(fv.mul_scalar(fv.sub(top, bot), _INV2), x_invs)
    return fv.add(even, fv.mul_scalar(odd, beta))


class FriProver:
    """Proves a committed codeword is within the low-degree bound."""

    def __init__(self, params: FriParams | None = None):
        self.params = params or FriParams()

    def prove(self, coefficients: Sequence[int],
              transcript: Transcript) -> FriProof:
        """Prove deg < len(coefficients) (padded to a power of two)."""
        p = self.params
        coeffs = np.asarray(
            [int(c) % MODULUS for c in coefficients], dtype=np.uint64)
        degree_bound = next_pow2(len(coeffs))
        padded = np.zeros(degree_bound, dtype=np.uint64)
        padded[: len(coeffs)] = coeffs

        domain_size = p.blowup * degree_bound
        with _span("fri.prove", "other", degree_bound=degree_bound,
                   domain=domain_size):
            with _span("fri.ntt", "rs_encode", n=domain_size):
                values = poly_eval_domain(padded, domain_size)  # the NTT

            layers: List[np.ndarray] = []
            trees: List[MerkleTree] = []
            roots: List[bytes] = []
            gen = primitive_root(domain_size)
            current = values
            bound = degree_bound
            while bound > p.stop_degree:
                with _span("fri.commit_layer", "merkle", leaves=len(current)):
                    tree = MerkleTree.from_columns(current[None, :])
                layers.append(current)
                trees.append(tree)
                roots.append(tree.root)
                transcript.absorb_digest(b"fri/root", tree.root)
                beta = transcript.challenge_field(b"fri/beta")
                with _span("fri.fold", "polyarith", n=len(current)):
                    current = _fold_layer(current, beta, gen)
                gen = gen * gen % MODULUS
                bound //= 2

            final_layer_coeffs = intt(current)
            if final_layer_coeffs[p.stop_degree:].any():
                # Explicit typed check (a bare assert would vanish under -O).
                raise VerificationError("final layer exceeds the degree bound")
            final_coeffs = [int(c)
                            for c in final_layer_coeffs[: p.stop_degree]]
            transcript.absorb_fields(b"fri/final", final_coeffs)

            indices = transcript.challenge_indices(
                b"fri/queries", p.num_queries, domain_size)
            with _span("fri.queries", "merkle", queries=len(indices)):
                queries = []
                positions = [set() for _ in layers]
                for idx in indices:
                    chain = []
                    i = idx
                    for layer, opened in zip(layers, positions):
                        half = len(layer) // 2
                        i %= half
                        chain.append(FriQueryStep(value=int(layer[i]),
                                                  sibling=int(layer[i + half])))
                        opened.update((i, i + half))
                    queries.append(chain)
                openings = [open_many(tree, opened)
                            for tree, opened in zip(trees, positions)]
        return FriProof(roots, final_coeffs, queries, openings)


class FriVerifier:
    """Checks a FRI proof against the claimed degree bound."""

    def __init__(self, params: FriParams | None = None):
        self.params = params or FriParams()

    def verify(self, degree_bound: int, proof: FriProof,
               transcript: Transcript) -> bool:
        """Check a FRI proof; adversarial structure (wrong types, bad
        digests, malformed query chains) is rejected with ``False``."""
        p = self.params
        if not isinstance(proof, FriProof):
            return False
        if not isinstance(proof.layer_roots, list) or not all(
                isinstance(r, (bytes, bytearray)) and len(r) == 32
                for r in proof.layer_roots):
            return False
        if not isinstance(proof.final_coefficients, list) or not all(
                isinstance(c, (int, np.integer)) and not isinstance(c, bool)
                and 0 <= c < MODULUS for c in proof.final_coefficients):
            return False
        if not isinstance(proof.queries, list):
            return False
        if (not isinstance(proof.layer_openings, list)
                or len(proof.layer_openings) != len(proof.layer_roots)):
            return False
        degree_bound = next_pow2(degree_bound)
        domain_size = p.blowup * degree_bound

        # Re-derive challenges.
        betas = []
        bound = degree_bound
        expected_layers = 0
        for root in proof.layer_roots:
            if bound <= p.stop_degree:
                return False
            transcript.absorb_digest(b"fri/root", root)
            betas.append(transcript.challenge_field(b"fri/beta"))
            bound //= 2
            expected_layers += 1
        if bound > p.stop_degree:
            return False  # too few layers for the claimed bound
        if len(proof.final_coefficients) != p.stop_degree:
            return False
        transcript.absorb_fields(b"fri/final", proof.final_coefficients)
        indices = transcript.challenge_indices(
            b"fri/queries", p.num_queries, domain_size)
        if len(proof.queries) != len(indices):
            return False

        base_gen = primitive_root(domain_size)
        # Per layer, the value every query opened at each position; two
        # queries opening one position must agree on it.
        opened = [{} for _ in proof.layer_roots]

        for idx, chain in zip(indices, proof.queries):
            if not isinstance(chain, list) or len(chain) != expected_layers:
                return False
            if not all(_query_step_well_formed(s) for s in chain):
                return False
            i = idx
            size = domain_size
            gen = base_gen
            carried = None  # folded value that must appear in the next layer
            for step, beta, layer in zip(chain, betas, opened):
                half = size // 2
                entering = i  # index of the carried value within this layer
                i %= half
                for pos, value in ((i, step.value), (i + half, step.sibling)):
                    if layer.setdefault(pos, value) != value:
                        return False
                # Consistency with the previous fold: the carried value
                # sits at `entering`, which is either the opened value
                # (bottom half) or its sibling (top half).
                if carried is not None:
                    present = step.value if entering < half else step.sibling
                    if present != carried:
                        return False
                x = pow(gen, i, MODULUS)
                even = (step.value + step.sibling) * _INV2 % MODULUS
                odd = ((step.value - step.sibling) * _INV2
                       % MODULUS * inv(x)) % MODULUS
                carried = (even + beta * odd) % MODULUS
                size = half
                gen = gen * gen % MODULUS

            if carried is None:
                # Degree bound at or below stop_degree: no layers were
                # committed, the coefficients *are* the (trivially
                # low-degree) message; nothing further to check.
                continue
            # The last fold must match the final polynomial, evaluated at
            # the query's point in the final domain (generator `gen`).
            pos = i % size
            point = pow(gen, pos, MODULUS)
            acc = 0
            for c in reversed(proof.final_coefficients):
                acc = (acc * point + int(c)) % MODULUS
            if carried != acc:
                return False

        # Merkle checks: one multiproof per layer, bound to its size.
        size = domain_size
        for root, layer, opening in zip(proof.layer_roots, opened,
                                        proof.layer_openings):
            positions = sorted(layer)
            values = np.array([[layer[pos] for pos in positions]],
                              dtype=np.uint64)
            # verify_many refuses a malformed opening first, so the
            # comparison below only ever sees a list of ints.
            if not (verify_many(root, hash_columns(values), opening,
                                num_leaves=size)
                    and list(opening.indices) == positions):
                return False
            size //= 2
        return True


def fri_prover_tasks(degree_bound: int, cfg=None):
    """NoCap task costs for one FRI commit+fold chain (Sec. IV-E
    generality hook): an NTT, per-layer Merkle hashing, and vector folds."""
    from ..nocap.config import DEFAULT_CONFIG
    from ..nocap.tasks import TaskCost, ntt_passes

    cfg = cfg or DEFAULT_CONFIG
    p = FriParams()
    n = next_pow2(degree_bound)
    domain = p.blowup * n
    tasks = [TaskCost(
        name="fri-evaluate", family="rs_encode",
        ntt_element_passes=domain * ntt_passes(domain, cfg.ntt_base_size),
        mem_bytes=8.0 * 2 * domain)]
    size = domain
    bound = n
    while bound > p.stop_degree:
        tasks.append(TaskCost(
            name=f"fri-layer-{size}", family="merkle",
            hash_elements=2.0 * size,
            mul_ops=2.0 * size, add_ops=3.0 * size,
            mem_bytes=8.0 * 3 * size if size > cfg.register_file_elements
            else 0.0))
        size //= 2
        bound //= 2
    return tasks
