"""SHA3-256 from scratch: the Keccak-f[1600] permutation and sponge.

NoCap's Hash FU implements SHA3 in hardware (Sec. IV-B: "The SHA3 hash
unit hashes at a throughput of 1 KB per cycle"; the task model charges
it by that throughput).  The rest of the repository uses :mod:`hashlib`
for speed; this module is the from-scratch reference the tests verify
hashlib against, and the place to read what the Hash FU actually
computes round by round.
"""

from __future__ import annotations

from typing import List

#: Keccak-f[1600] round constants (24 rounds).
ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

#: Rotation offsets r[x][y].
ROTATIONS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)

_M64 = (1 << 64) - 1


def _rotl(x: int, n: int) -> int:
    n %= 64
    return ((x << n) | (x >> (64 - n))) & _M64


def keccak_f1600(state: List[int]) -> List[int]:
    """The Keccak-f[1600] permutation on 25 lanes of 64 bits.

    State layout: ``state[x + 5 * y]`` is lane (x, y), matching FIPS 202.
    """
    if len(state) != 25:
        raise ValueError("state must have 25 lanes")
    a = [[state[x + 5 * y] & _M64 for y in range(5)] for x in range(5)]

    for rc in ROUND_CONSTANTS:
        # theta
        c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                a[x][y] ^= d[x]
        # rho + pi
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rotl(a[x][y], ROTATIONS[x][y])
        # chi
        for x in range(5):
            for y in range(5):
                a[x][y] = b[x][y] ^ ((~b[(x + 1) % 5][y]) & b[(x + 2) % 5][y] & _M64)
        # iota
        a[0][0] ^= rc

    return [a[x][y] for y in range(5) for x in range(5)]


#: SHA3-256 sponge parameters: rate 1088 bits (136 bytes), capacity 512.
RATE_BYTES = 136
DIGEST_BYTES = 32


def sha3_256(message: bytes) -> bytes:
    """SHA3-256 via the sponge construction (domain suffix 0x06)."""
    state = [0] * 25

    # Absorb: pad10*1 with the SHA-3 domain separator.
    padded = bytearray(message)
    padded.append(0x06)
    while len(padded) % RATE_BYTES:
        padded.append(0x00)
    padded[-1] |= 0x80

    for block_off in range(0, len(padded), RATE_BYTES):
        block = padded[block_off : block_off + RATE_BYTES]
        for i in range(RATE_BYTES // 8):
            lane = int.from_bytes(block[8 * i : 8 * i + 8], "little")
            state[i] ^= lane
        state = keccak_f1600(state)

    # Squeeze one block (the digest fits in the first rate).
    out = bytearray()
    for i in range(DIGEST_BYTES // 8):
        out += state[i].to_bytes(8, "little")
    return bytes(out)
