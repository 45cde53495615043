"""Service caches: proving/verifying keys and content-addressed proofs.

Two caches keep the daemon hot across requests:

* :class:`KeyCache` — one entry per ``(circuit_id, preset)``: the
  compiled circuit's keys plus its demo assignment, built once via
  :func:`repro.snark.setup` and reused by every subsequent job on that
  statement.  Keygen is the part of a request that cannot be
  parallelized away, so amortizing it is where a persistent service
  beats a fresh CLI process.

* :class:`ProofCache` — content-addressed envelopes: requests are keyed
  by ``sha256(preset | circuit | public inputs | seed)``
  (:func:`proof_cache_key`), and a hit returns the *byte-identical*
  NCPE envelope of the earlier proof without touching the prover.
  Deterministic proving (fixed seed ⇒ fixed bytes, PR 4) is what makes
  this sound: same key ⇒ same statement and randomness ⇒ same proof.
  Only seeded requests have a key: an unseeded one draws fresh masks, so
  the daemon neither looks it up nor stores its proof.

Both are LRU-bounded **by bytes**, not entry count, because one
paper-preset key dwarfs a hundred test-preset envelopes.  Hit/miss/
eviction counts and byte totals are plain attributes, read by the
daemon's ``stats`` op (``pk_cache`` / ``proof_cache``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from ..snark.envelope import VERSION as ENVELOPE_VERSION

#: Default byte budgets (overridable via ServiceConfig / CLI flags).
DEFAULT_KEY_CACHE_BYTES = 256 * 1024 * 1024
DEFAULT_PROOF_CACHE_BYTES = 64 * 1024 * 1024


class LRUBytesCache:
    """An LRU map bounded by the summed byte size of its values.

    ``get`` refreshes recency; ``put`` evicts least-recently-used
    entries until the new value fits.  A value larger than the whole
    budget is simply not cached (callers still hold the object they
    built).
    """

    def __init__(self, max_bytes: int):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def peek(self, key: Any) -> Optional[Any]:
        """Like :meth:`get` but a pure read: no counter, no reordering.

        Probes run on connection threads while the job thread's ``put`` may
        evict the same key at any moment, so a probe reads once and never
        reorders: a reorder after the read could find the key gone.
        """
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def put(self, key: Any, value: Any, size_bytes: int) -> None:
        size_bytes = int(size_bytes)
        if size_bytes > self.max_bytes:
            return  # would evict everything and still not fit
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        while self._entries and self.bytes + size_bytes > self.max_bytes:
            _k, (_v, sz) = self._entries.popitem(last=False)
            self.bytes -= sz
            self.evictions += 1
        self._entries[key] = (value, size_bytes)
        self.bytes += size_bytes

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class KeyEntry:
    """One compiled statement: keys plus the demo assignment."""

    pk: Any                  # ProvingKey
    vk: Any                  # VerifyingKey
    public: np.ndarray       # the workload's canonical public inputs
    witness: np.ndarray      # the workload's canonical witness


class KeyCache:
    """``(circuit_id, preset_name)`` → :class:`KeyEntry`, LRU by bytes.

    An entry is sized by what it holds: :attr:`R1CS.nbytes` (the three
    constraint matrices in CSR, 12 B per non-zero plus 4 B per row, plus
    their SpMV layout, built here at insert rather than on the first
    prove) plus the assignment.
    """

    def __init__(self, max_bytes: int = DEFAULT_KEY_CACHE_BYTES):
        self._lru = LRUBytesCache(max_bytes)

    def peek(self, circuit_id: str, preset_name: str) -> Optional[KeyEntry]:
        """The cached entry or None: never builds, counts nothing."""
        return self._lru.peek((circuit_id, preset_name))

    def get_or_build(self, circuit_id: str, preset_name: str) -> KeyEntry:
        """The cached entry, or build-compile-setup-insert on miss.

        Raises :class:`~repro.errors.ConfigError` for unknown circuit
        ids or presets — the caller maps that to a 400.
        """
        from ..snark import preset_by_name, setup
        from ..workloads.registry import build_workload

        key = (circuit_id, preset_name)
        entry = self._lru.get(key)
        if entry is not None:
            return entry
        name, circuit = build_workload(circuit_id)
        preset = preset_by_name(preset_name)
        r1cs, public, witness = circuit.compile()
        pk, vk = setup(r1cs, preset)
        r1cs._stacked()
        entry = KeyEntry(pk=pk, vk=vk,
                         public=np.asarray(public, dtype=np.uint64),
                         witness=np.asarray(witness, dtype=np.uint64))
        size = entry.public.nbytes + entry.witness.nbytes + r1cs.nbytes
        self._lru.put(key, entry, size)
        return entry

    def stats(self) -> dict:
        return self._lru.stats()


def proof_cache_key(preset_name: str, circuit_id: str, public: np.ndarray,
                    seed: int) -> str:
    """Content address of a seeded prove request: sha256 over the
    statement and the seed.

    The seed participates because proof bytes depend on it: two requests
    collide only when they would provably produce identical envelopes.
    The prefix carries the envelope format version, so envelopes of two
    formats never share a key.
    """
    h = hashlib.sha256()
    h.update(b"ncpe-proof-v%d\0" % ENVELOPE_VERSION)
    h.update(preset_name.encode("utf-8") + b"\0")
    h.update(circuit_id.encode("utf-8") + b"\0")
    h.update(b"%d\0" % int(seed))
    h.update(np.ascontiguousarray(
        np.asarray(public, dtype=np.uint64)).tobytes())
    return h.hexdigest()


class ProofCache:
    """Content-addressed envelope store: hex digest → NCPE bytes."""

    def __init__(self, max_bytes: int = DEFAULT_PROOF_CACHE_BYTES):
        self._lru = LRUBytesCache(max_bytes)

    def get(self, key: str) -> Optional[bytes]:
        return self._lru.get(key)

    def probe(self, key: str) -> Optional[bytes]:
        """Admission-time lookup: a found envelope counts as the hit it
        is; a miss counts nothing (the job body's :meth:`get` will)."""
        hit = self._lru.peek(key)
        if hit is not None:
            self._lru.hits += 1
        return hit

    def put(self, key: str, envelope: bytes) -> None:
        self._lru.put(key, envelope, len(envelope))

    def stats(self) -> dict:
        return self._lru.stats()
