"""Service caches: proving/verifying keys and content-addressed proofs.

Two caches keep the daemon hot across requests:

* :class:`KeyCache` — one entry per circuit id:
  :func:`repro.workloads.registry.build_keys`' statement (the compiled
  R1CS plus the demo assignment), built once and reused by every later
  job on that statement, under any preset.  Compiling is the part of a
  request that cannot be parallelized away, so amortizing it is where a
  persistent service beats a fresh CLI process.  Its key space is the
  registry's 5 ids, 2,923,092 B with every entry built, so it keeps
  them all and evicts nothing.

* :class:`ProofCache` — content-addressed envelopes: requests are keyed
  by ``sha256(preset | circuit | public inputs | seed)``
  (:func:`proof_cache_key`), and a hit returns the *byte-identical*
  NCPE envelope of the earlier proof without touching the prover.
  Deterministic proving (fixed seed ⇒ fixed bytes) is what makes
  this sound: same key ⇒ same statement and randomness ⇒ same proof.
  Only seeded requests have a key: an unseeded one draws fresh masks, so
  the daemon neither looks it up nor stores its proof.  Seeds make its
  key space unbounded, so it is an LRU bounded by bytes.

Hit/miss counts and byte totals are plain attributes, read by the
daemon's ``stats`` op (``pk_cache`` / ``proof_cache``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..snark.envelope import VERSION as ENVELOPE_VERSION

if TYPE_CHECKING:  # a client imports this module; it never builds keys
    from ..workloads.registry import WorkloadKeys

#: Default proof-cache budget (``repro serve --proof-cache-mb``).
DEFAULT_PROOF_CACHE_BYTES = 64 * 1024 * 1024


class KeyCache:
    """circuit id → :class:`WorkloadKeys`, each statement compiled once
    per service and kept for its life.  The compiled R1CS does not
    depend on the preset, so a hit binds it to the requested one with
    :func:`~repro.snark.setup` (two frozen key objects, no compile).

    ``bytes`` is what the entries hold: :attr:`R1CS.nbytes` (the three
    constraint matrices in CSR, 12 B per non-zero plus 4 B per row, plus
    their SpMV layout, built here at insert rather than on the first
    prove) plus the assignment.
    """

    def __init__(self):
        self._entries: "Dict[str, WorkloadKeys]" = {}
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def peek(self, circuit_id: str) -> Optional[WorkloadKeys]:
        """The built entry (keys of the preset that built it) or None:
        never builds, counts nothing."""
        return self._entries.get(circuit_id)

    def get_or_build(self, circuit_id: str,
                     preset_name: str) -> WorkloadKeys:
        """The statement's keys under ``preset_name``: the entry rebound
        to it on a hit, :func:`build_keys` on a miss.

        Raises :class:`~repro.errors.ConfigError` for unknown circuit
        ids or presets, before anything compiles (the caller's 400).
        """
        from ..snark import preset_by_name, setup
        from ..workloads.registry import build_keys

        preset = preset_by_name(preset_name)
        entry = self._entries.get(circuit_id)
        if entry is not None:
            self.hits += 1
            pk, vk = setup(entry.pk.r1cs, preset)
            return replace(entry, pk=pk, vk=vk)
        self.misses += 1
        entry = build_keys(circuit_id, preset_name)
        r1cs = entry.pk.r1cs
        r1cs._stacked()          # the transposed layout: ``bytes`` counts it
        self._entries[circuit_id] = entry
        self.bytes += entry.public.nbytes + entry.witness.nbytes + r1cs.nbytes
        return entry

    def stats(self) -> dict:
        return {"entries": len(self._entries), "bytes": self.bytes,
                "hits": self.hits, "misses": self.misses}


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
    """Content-addressed envelope store: hex digest → NCPE bytes, an LRU
    bounded by the envelopes' summed length.

    :meth:`get` refreshes recency; :meth:`put` evicts least-recently-used
    envelopes until the new one fits.  An envelope larger than the whole
    budget is simply not cached.
    """

    def __init__(self, max_bytes: int = DEFAULT_PROOF_CACHE_BYTES):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[bytes]:
        envelope = self._entries.get(key)
        if envelope is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return envelope

    def probe(self, key: str) -> Optional[bytes]:
        """Admission-time lookup: a found envelope counts as the hit it
        is; a miss counts nothing (the job body's :meth:`get` will).

        Probes run on connection threads while the job thread's
        :meth:`put` may evict the same key at any moment, so a probe
        reads once and never reorders: a reorder after the read could
        find the key gone.
        """
        envelope = self._entries.get(key)
        if envelope is not None:
            self.hits += 1
        return envelope

    def put(self, key: str, envelope: bytes) -> None:
        size = len(envelope)
        if size > self.max_bytes:
            return  # would evict everything and still not fit
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= len(old)
        while self._entries and self.bytes + size > self.max_bytes:
            _key, evicted = self._entries.popitem(last=False)
            self.bytes -= len(evicted)
            self.evictions += 1
        self._entries[key] = envelope
        self.bytes += size

    def stats(self) -> dict:
        return {"entries": len(self._entries), "bytes": self.bytes,
                "max_bytes": self.max_bytes, "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}
