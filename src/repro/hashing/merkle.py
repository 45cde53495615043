"""Merkle tree commitments over field-element leaves (Sec. V-A).

The prover packs field elements into leaves, hashes the largest layers in
parallel on the Hash FU, and combines upward.  Every opening is a
multiproof (:func:`open_many` / :func:`verify_many`): the leaves a proof
opens in one tree share one deduplicated list of sibling digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..obs import count as _count, get_tracer as _get_tracer
from .fieldhash import DIGEST_BYTES, hash_columns, hash_pair

_EMPTY_LEAF = b"\x00" * DIGEST_BYTES


class MerkleTree:
    """A binary Merkle tree over a list of leaf digests.

    Layers are stored as CONTIGUOUS byte strings (32 bytes per node) rather
    than Python lists — each layer is built with one tight loop over a flat
    buffer, matching how the Hash FU streams a whole layer per pass.
    ``layers[0]`` is the (power-of-two padded) leaf layer; ``layers[-1]``
    is the single root digest.
    """

    def __init__(self, leaf_digests: Sequence[bytes]):
        if isinstance(leaf_digests, (bytes, bytearray, memoryview)):
            raw = bytes(leaf_digests)
            if len(raw) == 0 or len(raw) % DIGEST_BYTES:
                raise ValueError("packed leaves must be a non-empty multiple "
                                 "of the digest size")
            n = len(raw) // DIGEST_BYTES
        else:
            leaves = list(leaf_digests)
            if not leaves:
                raise ValueError("Merkle tree needs at least one leaf")
            n = len(leaves)
            raw = b"".join(leaves)
            if len(raw) != n * DIGEST_BYTES:
                raise ValueError("every leaf digest must be 32 bytes")
        size = 1 if n == 1 else 1 << (n - 1).bit_length()
        if size > n:
            raw += _EMPTY_LEAF * (size - n)
        self.num_leaves = n
        self.layers: List[bytes] = [raw]
        _sha3 = hashlib.sha3_256
        current = raw
        while len(current) > DIGEST_BYTES:
            nxt = bytearray(len(current) // 2)
            for i in range(0, len(nxt), DIGEST_BYTES):
                nxt[i : i + DIGEST_BYTES] = _sha3(
                    current[2 * i : 2 * i + 2 * DIGEST_BYTES]).digest()
            current = bytes(nxt)
            self.layers.append(current)
        if _get_tracer() is not None:
            _count("merkle.trees")
            _count("merkle.hashes", self.total_hashes())

    @classmethod
    def from_columns(cls, matrix: np.ndarray) -> "MerkleTree":
        """Commit to the columns of a 2-D field matrix (one leaf per column).

        This is how Orion commits to a Reed-Solomon-encoded coefficient
        matrix: each codeword column becomes one leaf, hashed by
        :func:`hash_columns` (one tagged SHA3 call per column).
        """
        matrix = np.asarray(matrix, dtype=np.uint64)
        if matrix.ndim != 2:
            raise ValueError("from_columns expects a 2-D matrix")
        return cls(hash_columns(matrix))

    def node(self, level: int, index: int) -> bytes:
        """Digest of node ``index`` in ``layers[level]``."""
        off = index * DIGEST_BYTES
        return self.layers[level][off : off + DIGEST_BYTES]

    @property
    def root(self) -> bytes:
        return self.layers[-1]

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    def total_hashes(self) -> int:
        """Pair-hash operations performed building the tree (read by the
        ``merkle.hashes`` kernel counter)."""
        return sum(len(layer) // DIGEST_BYTES for layer in self.layers[1:])


@dataclass
class MerkleMultiProof:
    """Batched opening of several leaves with shared internal nodes.

    Orion opens 189 columns of one tree; sibling digests shared between
    query paths need shipping only once.  ``nodes`` lists the sibling
    digests in verification order (bottom layer upward, left to right).
    """

    indices: List[int]
    nodes: List[bytes]


def open_many(tree: "MerkleTree", indices: Sequence[int]) -> MerkleMultiProof:
    """Produce one multiproof covering all ``indices`` (deduplicated)."""
    idxs = sorted(set(int(i) for i in indices))
    for i in idxs:
        if not 0 <= i < tree.num_leaves:
            raise IndexError(f"leaf index {i} out of range")
    _count("merkle.paths_opened", len(idxs))
    nodes: List[bytes] = []
    frontier = set(idxs)
    for level in range(len(tree.layers) - 1):
        next_frontier = set()
        for i in sorted(frontier):
            sibling = i ^ 1
            # Ship the sibling only if the verifier cannot derive it.
            if sibling not in frontier:
                nodes.append(tree.node(level, sibling))
            next_frontier.add(i // 2)
        frontier = next_frontier
    return MerkleMultiProof(indices=idxs, nodes=nodes)


def verify_many(root: bytes, leaf_digests: Sequence[bytes],
                proof: MerkleMultiProof, num_leaves: int) -> bool:
    """Check a multiproof: ``leaf_digests[k]`` sits at ``proof.indices[k]``.

    Reconstructs the tree frontier layer by layer, consuming shipped
    sibling nodes exactly in :func:`open_many`'s order.  Adversarial
    proofs — wrong node types, out-of-range or unsorted indices, missing
    or trailing siblings — are rejected with ``False``, never an
    uncaught exception.
    """
    if not isinstance(proof, MerkleMultiProof):
        return False
    if not isinstance(num_leaves, int) or num_leaves < 1:
        return False
    if not _well_formed_digests(proof.nodes):
        return False
    if not _well_formed_digests(leaf_digests):
        return False
    if not isinstance(proof.indices, list) or not all(
            isinstance(i, int) and 0 <= i < num_leaves for i in proof.indices):
        return False
    if len(leaf_digests) != len(proof.indices):
        return False
    if sorted(set(proof.indices)) != list(proof.indices):
        return False
    size = 1 if num_leaves == 1 else 1 << (num_leaves - 1).bit_length()
    known = dict(zip(proof.indices, leaf_digests))
    nodes = iter(proof.nodes)
    try:
        while size > 1:
            next_known = {}
            for i in sorted(known):
                if i // 2 in next_known:
                    continue
                sibling = i ^ 1
                if sibling in known:
                    sib_digest = known[sibling]
                else:
                    sib_digest = next(nodes)
                left, right = (known[i], sib_digest) if i % 2 == 0                     else (sib_digest, known[i])
                next_known[i // 2] = hash_pair(left, right)
            known = next_known
            size //= 2
    except StopIteration:
        return False
    if next(nodes, None) is not None:
        return False  # trailing unused nodes
    return known.get(0) == root


def _well_formed_digests(digests) -> bool:
    """True when ``digests`` is a sequence of 32-byte strings."""
    try:
        return all(isinstance(d, (bytes, bytearray))
                   and len(d) == DIGEST_BYTES for d in digests)
    except TypeError:
        return False
