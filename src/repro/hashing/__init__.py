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
    MerklePath,
    MerkleTree,
    open_many,
    verify_column,
    verify_many,
    verify_path,
)
from .transcript import Transcript

__all__ = [
    "DIGEST_BYTES",
    "LEAF_TAG",
    "hash_elements",
    "hash_pair",
    "MerkleMultiProof",
    "MerklePath",
    "MerkleTree",
    "open_many",
    "verify_many",
    "verify_column",
    "verify_path",
    "Transcript",
]
