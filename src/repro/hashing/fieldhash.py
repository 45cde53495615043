"""SHA3-256 hashing of field elements: packed leaves and pair nodes.

The paper's Hash FU (Sec. IV-B) absorbs *packed* leaves at 1 KB (128
field elements) per cycle and combines 256-bit digests pairwise up the
tree.  A Merkle leaf here is ONE domain-tagged sponge call over the
column's little-endian bytes::

    leaf = SHA3-256(LEAF_TAG || LE64(column))

so no leaf preimage can be read as a 64-byte inner-node preimage.  The
performance model charges the Hash FU per element absorbed
(``TaskCost.hash_elements``), which is what a packed sponge does: every
element costs 8 bytes of rate, with no per-word call and no padding words.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np

DIGEST_BYTES = 32
#: Domain tag opening every leaf preimage.  Its length is odd, so a leaf
#: preimage (tag + 8 bytes per element) is never the 64 bytes of a pair
#: node's.
LEAF_TAG = b"ncpe/orion-leaf/v2\0"
#: Bytes one Keccak-f[1600] permutation absorbs in SHA3-256.
SHA3_256_RATE_BYTES = 136
#: Columns transposed and hashed per pass of :func:`hash_columns`: the
#: packed transient is one block (~1 MB at 129 rows), not one matrix.
COLUMN_BLOCK = 1024


def hash_pair(left: bytes, right: bytes) -> bytes:
    """The Hash FU primitive: two 256-bit inputs -> one 256-bit output."""
    return hashlib.sha3_256(left + right).digest()


def hash_elements(elements: np.ndarray) -> bytes:
    """The leaf digest of one vector of field elements (one column)."""
    arr = np.asarray(elements, dtype=np.uint64).ravel()
    return hashlib.sha3_256(LEAF_TAG + arr.astype("<u8").tobytes()).digest()


def _packed_columns(block: np.ndarray) -> List[memoryview]:
    """The little-endian bytes of each column of a ``(rows, n)`` block."""
    stride = 8 * block.shape[0]
    raw = memoryview(np.ascontiguousarray(block.T, dtype="<u8").tobytes())
    return [raw[j * stride : (j + 1) * stride] for j in range(block.shape[1])]


def hash_columns(matrix: np.ndarray) -> List[bytes]:
    """Leaf digests of every column of a 2-D field matrix.

    Equal to ``[hash_elements(matrix[:, j]) for j]``, computed as a
    blocked transpose plus one ``hashlib`` call per column.  This is the
    leaf-hashing kernel of the Merkle commitment (all leaves of a layer
    stream through the Hash FU together, Sec. IV-B).
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ValueError("hash_columns expects a 2-D matrix")
    _sha3 = hashlib.sha3_256
    out: List[bytes] = []
    for lo in range(0, matrix.shape[1], COLUMN_BLOCK):
        out.extend(_sha3(LEAF_TAG + column).digest() for column in
                   _packed_columns(matrix[:, lo : lo + COLUMN_BLOCK]))
    return out


class ColumnChainHasher:
    """Tile-at-a-time :func:`hash_columns`: one incremental sponge per
    column, fed row tiles of any height in order.

    Nothing in ``src/`` uses it (``commit`` keeps its codewords and
    hashes them once); it survives, under its old name, because the
    benchmark's staged commit imports it.
    """

    def __init__(self, num_cols: int, total_rows: int):
        if total_rows < 1 or num_cols < 1:
            raise ValueError("need at least one row and one column")
        self.total_rows = total_rows
        self.rows_fed = 0
        self._sponges = [hashlib.sha3_256(LEAF_TAG) for _ in range(num_cols)]

    def update(self, tile: np.ndarray) -> None:
        """Absorb a ``(tile_rows, num_cols)`` row tile."""
        tile = np.asarray(tile, dtype=np.uint64)
        if tile.ndim != 2 or tile.shape[1] != len(self._sponges):
            raise ValueError("tile shape does not match the column count")
        if self.rows_fed + tile.shape[0] > self.total_rows:
            raise ValueError("more rows than the hasher was sized for")
        self.rows_fed += tile.shape[0]
        for sponge, column in zip(self._sponges, _packed_columns(tile)):
            sponge.update(column)

    def finalize(self) -> bytes:
        """Flat ``num_cols * 32`` leaf-digest bytes (hash_columns order)."""
        if self.rows_fed != self.total_rows:
            raise ValueError(
                f"hasher fed {self.rows_fed} of {self.total_rows} rows")
        return b"".join(sponge.digest() for sponge in self._sponges)


def compression_calls_for_elements(n_elements: int) -> int:
    """Keccak-f permutations one packed leaf of ``n_elements`` costs
    (SHA3 pads with at least one byte, hence the ``+ 1``).

    Used by unit tests to pin the functional layer to the cost model.
    """
    return (len(LEAF_TAG) + 8 * n_elements) // SHA3_256_RATE_BYTES + 1
