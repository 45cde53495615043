"""Fiat-Shamir transcript: turns the interactive Spartan+Orion protocol
into a non-interactive argument.

Every prover message is absorbed into a running SHA3 state; verifier
challenges are derived deterministically from that state, so prover and
verifier reconstruct identical challenge sequences.  This is the same
mechanism Listing 1's ``rx[i] = HASH(result[i])`` line sketches.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Sequence

import numpy as np

from ..errors import TranscriptError
from ..field.goldilocks import MODULUS

_P = np.uint64(MODULUS)


class Transcript:
    """A labelled Fiat-Shamir transcript over SHA3-256.

    Absorb methods validate their input and raise
    :class:`~repro.errors.TranscriptError` on anything that is not a
    clean byte string / integer sequence.  Verifier paths check proof
    structure *before* absorbing, so these are a typed backstop: replayed
    adversarial data can at worst raise a ``ReproError``, never a bare
    ``struct.error`` or ``TypeError``.
    """

    def __init__(self, domain: bytes = b"nocap.spartan-orion.v1"):
        self._state = hashlib.sha3_256(domain).digest()
        self._counter = 0

    # -- absorbing ----------------------------------------------------------
    def absorb_bytes(self, label: bytes, data: bytes) -> None:
        if not isinstance(label, (bytes, bytearray)):
            raise TranscriptError(
                f"transcript label must be bytes, got {type(label).__name__}")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TranscriptError(
                f"transcript data must be bytes, got {type(data).__name__}")
        h = hashlib.sha3_256()
        h.update(self._state)
        h.update(struct.pack("<I", len(label)))
        h.update(label)
        h.update(struct.pack("<Q", len(data)))
        h.update(data)
        self._state = h.digest()

    def absorb_field(self, label: bytes, value: int) -> None:
        self.absorb_bytes(label, struct.pack("<Q", self._as_field(value)))

    def absorb_fields(self, label: bytes, values: Sequence[int]) -> None:
        data = b"".join(struct.pack("<Q", self._as_field(v)) for v in values)
        self.absorb_bytes(label, data)

    def absorb_array(self, label: bytes, arr: np.ndarray) -> None:
        try:
            data = np.ascontiguousarray(arr, dtype="<u8").tobytes()
        except (TypeError, ValueError, OverflowError) as exc:
            raise TranscriptError(
                f"cannot absorb non-uint64 array under {label!r}: {exc}"
            ) from exc
        self.absorb_bytes(label, data)

    def absorb_digest(self, label: bytes, digest: bytes) -> None:
        self.absorb_bytes(label, digest)

    @staticmethod
    def _as_field(value) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TranscriptError(
                f"transcript field element must be an integer, "
                f"got {type(value).__name__}")
        return int(value) % MODULUS

    # -- squeezing ----------------------------------------------------------
    def _squeeze(self) -> bytes:
        h = hashlib.sha3_256()
        h.update(self._state)
        h.update(struct.pack("<Q", self._counter))
        self._counter += 1
        return h.digest()

    def challenge_field(self, label: bytes) -> int:
        """Derive one uniform field element (rejection sampling on 64-bit draws)."""
        self.absorb_bytes(b"challenge/" + label, b"")
        while True:
            block = self._squeeze()
            for off in range(0, 32, 8):
                candidate = struct.unpack("<Q", block[off : off + 8])[0]
                if candidate < MODULUS:
                    return candidate

    def challenge_fields(self, label: bytes, count: int) -> List[int]:
        return [self.challenge_field(label + b"/%d" % i) for i in range(count)]

    def challenge_vector(self, label: bytes, count: int) -> np.ndarray:
        """Derive ``count`` uniform field elements from ONE absorb.

        Its own derivation, unrelated to :meth:`challenge_fields` under
        the same label: the tag ``challenge-vec/`` and the count are
        absorbed once, then squeeze blocks are read in order as four
        little-endian 64-bit candidates each, candidates >= p rejected,
        until ``count`` are accepted (the rest of the last block is
        dropped).  About ``count / 4`` hashes instead of ``2 * count``.
        """
        self.absorb_bytes(b"challenge-vec/" + label, struct.pack("<Q", count))
        out = np.empty(count, dtype=np.uint64)
        filled = 0
        while filled < count:
            # Never more blocks than a block-at-a-time loop would take:
            # each yields at most four elements.
            blocks = -(-(count - filled) // 4)
            candidates = np.frombuffer(
                b"".join(self._squeeze() for _ in range(blocks)), dtype="<u8")
            accepted = candidates[candidates < _P][: count - filled]
            out[filled : filled + len(accepted)] = accepted
            filled += len(accepted)
        return out

    def challenge_indices(self, label: bytes, count: int, bound: int) -> List[int]:
        """Derive ``count`` distinct indices in [0, bound) — the Orion
        column-query sampler.  If bound <= count, returns all indices."""
        if bound <= 0:
            raise TranscriptError("challenge index bound must be positive")
        if bound <= count:
            return list(range(bound))
        self.absorb_bytes(b"challenge-idx/" + label, struct.pack("<QQ", count, bound))
        chosen: List[int] = []
        seen = set()
        while len(chosen) < count:
            block = self._squeeze()
            for off in range(0, 32, 8):
                candidate = struct.unpack("<Q", block[off : off + 8])[0] % bound
                if candidate not in seen:
                    seen.add(candidate)
                    chosen.append(candidate)
                    if len(chosen) == count:
                        break
        return chosen

    def fork(self, label: bytes) -> "Transcript":
        """Create an independent transcript branch (for repeated sumchecks)."""
        child = Transcript.__new__(Transcript)
        child._state = hashlib.sha3_256(self._state + b"fork/" + label).digest()
        child._counter = 0
        return child
