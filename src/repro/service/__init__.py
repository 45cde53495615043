"""Proving-as-a-service: daemon, client, protocol, and caches.

The long-running complement to the one-shot lifecycle API
(:mod:`repro.snark`): ``repro serve`` keeps proving keys and a proof
cache resident across requests, and :class:`ServiceClient` (also exported from :mod:`repro`)
talks to it over a unix or TCP socket.  See ``docs/SERVICE.md``.  The
daemon is imported from :mod:`.server`, so a client never loads it.
"""

from .cache import KeyCache, ProofCache, proof_cache_key
from .client import ServiceClient
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    QueueFullError,
    ServiceError,
)

__all__ = [
    "FrameError",
    "KeyCache",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProofCache",
    "QueueFullError",
    "ServiceClient",
    "ServiceError",
    "proof_cache_key",
]
