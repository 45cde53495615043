"""Bounded, client-fair priority queue for the proving service.

The admission-control half of the service's backpressure story
(``docs/SERVICE.md``): the queue holds at most ``max_depth`` jobs and
each client at most ``max_per_client`` of them; a submission past either
bound raises :class:`~repro.service.protocol.QueueFullError` — the
429-style rejection the protocol relays — instead of buffering without
limit and letting latency (and memory) grow unbounded under overload.

Ordering is **priority first, then fair**: within one priority level,
jobs are interleaved round-robin across clients rather than strictly
FIFO, so a client that dumps a 50-job batch cannot park every other
client behind it.  The mechanism is a virtual-time key: a client's
``k``-th *outstanding* job sorts at position ``k``, so clients with
fewer queued jobs always sort ahead at equal priority.  Within one
``(priority, position)`` a monotonic sequence number keeps FIFO order
and makes the heap total (jobs never compare).

Single-consumer/multi-producer from one asyncio event loop: ``put`` is
synchronous (handlers reject instantly — backpressure must not itself
queue), ``get`` awaits.  No thread-safety is needed or provided; the
executor-bound job *bodies* run in threads, but queue access stays on
the loop.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Any, Dict, List, Optional, Tuple

from .protocol import QueueFullError

#: Default bounds; services usually override via ServiceConfig.
DEFAULT_MAX_DEPTH = 64
DEFAULT_MAX_PER_CLIENT = 16


class BoundedJobQueue:
    """An asyncio priority queue with hard bounds and per-client fairness.

    ``priority`` is smaller-is-sooner (0 = normal; negative jumps the
    line, positive yields it).  ``client`` is any stable string naming
    the submitter (the service uses the client-supplied id or the
    connection's peer name).
    """

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH,
                 max_per_client: int = DEFAULT_MAX_PER_CLIENT):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if max_per_client < 1:
            raise ValueError(
                f"max_per_client must be >= 1, got {max_per_client}")
        self.max_depth = int(max_depth)
        self.max_per_client = int(max_per_client)
        self._heap: List[Tuple[int, int, int, Any]] = []
        self._queued_per_client: Dict[str, int] = {}
        self._seq = itertools.count()
        self._not_empty = asyncio.Event()
        #: Lifetime stats, reported by :meth:`stats` (the ``stats`` op).
        self.peak_depth = 0
        self.rejected_full = 0
        self.rejected_client = 0
        self.enqueued = 0

    def __len__(self) -> int:
        return len(self._heap)

    def depth_of(self, client: str) -> int:
        """Jobs currently queued by ``client``."""
        return self._queued_per_client.get(client, 0)

    def put(self, item: Any, *, priority: int = 0, client: str = "") -> None:
        """Admit ``item`` or raise :class:`QueueFullError` (never blocks).

        The two bounds reject with distinct messages so a client can
        tell "the service is saturated" (back off globally) from "I have
        too many in flight" (drain my own results first).
        """
        if len(self._heap) >= self.max_depth:
            self.rejected_full += 1
            raise QueueFullError(
                f"job queue full ({self.max_depth} queued); retry with "
                "backoff")
        mine = self._queued_per_client.get(client, 0)
        if mine >= self.max_per_client:
            self.rejected_client += 1
            raise QueueFullError(
                f"client {client or '<anonymous>'!s} already has {mine} "
                f"jobs queued (cap {self.max_per_client}); await results "
                "before submitting more")
        # Fairness position: this becomes the client's (mine+1)-th queued
        # job, so it sorts behind every client with fewer outstanding.
        self._queued_per_client[client] = mine + 1
        heapq.heappush(self._heap,
                       (int(priority), mine, next(self._seq), (client, item)))
        self.enqueued += 1
        self.peak_depth = max(self.peak_depth, len(self._heap))
        self._not_empty.set()

    async def get(self) -> Any:
        """Pop the next job (priority, then client-fair order); awaits
        until one is available."""
        while not self._heap:
            self._not_empty.clear()
            await self._not_empty.wait()
        return self.get_nowait()

    def get_nowait(self) -> Optional[Any]:
        """Pop without waiting; None when empty (drain-on-shutdown path)."""
        if not self._heap:
            return None
        _prio, _pos, _seq, (client, item) = heapq.heappop(self._heap)
        left = self._queued_per_client.get(client, 1) - 1
        if left > 0:
            self._queued_per_client[client] = left
        else:
            self._queued_per_client.pop(client, None)
        return item

    def stats(self) -> dict:
        return {
            "depth": len(self._heap),
            "peak_depth": self.peak_depth,
            "max_depth": self.max_depth,
            "max_per_client": self.max_per_client,
            "enqueued": self.enqueued,
            "rejected_full": self.rejected_full,
            "rejected_client": self.rejected_client,
        }
