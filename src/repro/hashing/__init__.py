"""Hashing substrate: SHA3 field hashing, Merkle trees, Fiat-Shamir."""

from .fieldhash import (
    DIGEST_BYTES,
    LEAF_TAG,
    hash_elements,
    hash_pair,
)
from .keccak import keccak_f1600
from .keccak import sha3_256 as sha3_256_from_scratch
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
from . import poseidon

__all__ = [
    "DIGEST_BYTES",
    "LEAF_TAG",
    "hash_elements",
    "hash_pair",
    "keccak_f1600",
    "sha3_256_from_scratch",
    "MerkleMultiProof",
    "MerklePath",
    "MerkleTree",
    "open_many",
    "verify_many",
    "verify_column",
    "verify_path",
    "Transcript",
    "poseidon",
]
