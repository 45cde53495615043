"""Proving-as-a-service: daemon, client, protocol, and caches.

The long-running complement to the one-shot lifecycle API
(:mod:`repro.snark`): ``repro serve`` keeps proving keys and a proof
cache resident across requests, and :class:`ServiceClient` (also exported from :mod:`repro`)
talks to it over a unix or TCP socket.  See ``docs/SERVICE.md``.
"""

from .cache import KeyCache, LRUBytesCache, ProofCache, proof_cache_key
from .client import ServiceClient
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    QueueFullError,
    ServiceError,
)
from .server import Job, ProvingService, ServiceConfig, serve_forever

__all__ = [
    "FrameError",
    "Job",
    "KeyCache",
    "LRUBytesCache",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProofCache",
    "ProvingService",
    "QueueFullError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "proof_cache_key",
    "serve_forever",
]
