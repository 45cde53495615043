"""Hashing substrate: SHA3 field hashing, Merkle trees, Fiat-Shamir (the
reference Keccak and Poseidon, used by no proof, load from their modules)."""

from .fieldhash import (
    DIGEST_BYTES,
    LEAF_TAG,
    hash_elements,
    hash_pair,
)
from .merkle import (
    MerkleMultiProof,
    MerkleTree,
    open_many,
    verify_many,
)
from .transcript import Transcript

__all__ = [
    "DIGEST_BYTES",
    "LEAF_TAG",
    "hash_elements",
    "hash_pair",
    "MerkleMultiProof",
    "MerkleTree",
    "open_many",
    "verify_many",
    "Transcript",
]
