"""Zero-copy transfer between prover processes via POSIX shared memory.

Pickling a proving key into the executor pipe once per job is what made
batch proving lose to serial (at 2^16 constraints one ``prove_many`` job
shipped a ~27 MB key and the batch measured 0.32x).  This module
replaces the pipe with named ``multiprocessing.shared_memory`` segments:

* the parent places an ndarray (or a pickled blob) in a segment ONCE and
  hands workers a tiny :class:`ArrayDesc`/:class:`BlobDesc` —
  ``(name, shape, dtype)`` — instead of the data;
* workers attach by name (:func:`attached` / :func:`read_blob`) and read
  the same physical pages, so the only copy is the initial placement;
* every segment is owned by a :class:`ShmArena` whose cleanup is
  guaranteed three ways — explicit :meth:`ShmArena.close` (also the
  context-manager exit), a module ``atexit`` hook, and a chained SIGTERM
  handler — so the test suite and a killed prover both leave ``/dev/shm``
  empty.

Where :func:`shm_supported` is false there is no second way to ship a
job: batches are simply proved in the calling process.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import re
import signal
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..obs.events import FLIGHT as _FLIGHT
from ..obs.metrics import METRICS as _METRICS

class ShmError(RuntimeError):
    """A shared-memory segment could not be created, attached, or mapped
    (most commonly: attaching a descriptor whose segment was torn down)."""


def shm_supported() -> bool:
    """True when named shared memory is importable on this platform."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms
        return False
    return True


@dataclass(frozen=True)
class ArrayDesc:
    """Everything a worker needs to attach an ndarray by name."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class BlobDesc:
    """A raw byte blob (e.g. a pickled proving key) in a named segment.

    ``size`` is the logical length — the segment itself may be rounded up
    to a page boundary by the OS.
    """

    name: str
    size: int


def _attach_untracked(name: str):
    """Attach an existing segment WITHOUT registering it with the
    resource tracker.

    ``SharedMemory`` registers every *attach* (not just creation) with
    the ``multiprocessing`` resource tracker (CPython bpo-39959).  Under
    ``fork`` the tracker process is shared, so a worker's registration —
    or a later compensating ``unregister`` — collides with the creating
    process's own bookkeeping (double-unlink attempts, KeyError noise at
    exit).  Ownership and cleanup live solely in the creating process's
    :class:`ShmArena`, so attaches must be invisible to the tracker:
    Python 3.13 exposes ``track=False`` for exactly this; on older
    versions the ``register`` call is suppressed for the duration of the
    attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False,
                                          track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        pass
    from multiprocessing import resource_tracker

    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = orig_register


# ---------------------------------------------------------------------------
# Owning side
# ---------------------------------------------------------------------------

#: Live arenas in this process, for the atexit/SIGTERM safety nets.
_LIVE_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()
_CLEANUP_INSTALLED = False


def _cleanup_all_arenas() -> None:
    """Unlink every segment still owned by this process (safety net)."""
    for arena in list(_LIVE_ARENAS):
        try:
            arena.close()
        except Exception:  # noqa: BLE001 - never raise during teardown
            pass


def _sigterm_cleanup(signum, frame):  # pragma: no cover - signal path
    _cleanup_all_arenas()
    # Restore and re-raise so the process still dies with SIGTERM status.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _install_cleanup_hooks() -> None:
    """Register the atexit hook and (if free) a chaining SIGTERM handler."""
    global _CLEANUP_INSTALLED
    if _CLEANUP_INSTALLED:
        return
    _CLEANUP_INSTALLED = True
    atexit.register(_cleanup_all_arenas)
    try:
        if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sigterm_cleanup)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


class ShmArena:
    """Owner of a family of named shared-memory segments.

    One arena per :class:`~repro.parallel.pool.ProverPool`: it creates
    the segments a batch of jobs reads, hands out descriptors, and
    guarantees every segment is closed *and unlinked* — via
    :meth:`close`, the context-manager protocol, ``atexit``, or SIGTERM.
    """

    #: Segment serial numbers are drawn process-wide, not per arena: two
    #: live arenas with one prefix (the process-wide pool next to a
    #: caller's own) must never mint the same ``<prefix>_<pid>_<n>``.
    _serial = itertools.count(1)

    def __init__(self, prefix: str = "repro"):
        if not shm_supported():
            raise ShmError("shared memory is not available on this platform")
        self._prefix = f"{prefix}_{os.getpid()}"
        self._segments: Dict[str, object] = {}  # name -> SharedMemory
        self._closed = False
        _LIVE_ARENAS.add(self)
        _install_cleanup_hooks()

    # -- allocation --------------------------------------------------------
    def _new_segment(self, nbytes: int):
        from multiprocessing import shared_memory

        name = f"{self._prefix}_{next(self._serial)}"
        try:
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=max(1, nbytes))
        except (OSError, ValueError) as exc:
            raise ShmError(f"cannot create segment {name!r}: {exc}") from exc
        self._segments[name] = shm
        _METRICS.inc("parallel.shm_bytes_shared", nbytes)
        _METRICS.gauge("parallel.shm_in_use_bytes", self.bytes_in_use)
        return shm

    def share_array(self, arr: np.ndarray) -> ArrayDesc:
        """Place one ndarray into a fresh segment (the single copy the
        zero-copy protocol pays) and return its descriptor."""
        arr = np.ascontiguousarray(arr)
        shm = self._new_segment(arr.nbytes)
        desc = ArrayDesc(shm.name.lstrip("/"), tuple(arr.shape),
                         str(arr.dtype))
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        del view
        return desc

    def share_blob(self, data: bytes) -> BlobDesc:
        """Place raw bytes (e.g. ``pickle.dumps(pk)``) into a segment."""
        shm = self._new_segment(len(data))
        shm.buf[: len(data)] = data
        return BlobDesc(shm.name.lstrip("/"), len(data))

    def share_pickle(self, obj) -> BlobDesc:
        return self.share_blob(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    # -- release -----------------------------------------------------------
    @staticmethod
    def _release(shm) -> None:
        """Close and unlink one SharedMemory handle, tolerating every
        already-gone / already-closed state (idempotent by construction:
        a segment is released at most once because callers *pop* it out
        of ``_segments`` first, and the unlink itself swallows
        ``FileNotFoundError`` in case an external janitor or a racing
        cleanup chain got there before us)."""
        try:
            shm.close()
        except (BufferError, OSError):  # pragma: no cover - exotic states
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            # unlink() raised before telling the resource tracker, which
            # would report the already-gone segment as leaked at exit.
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except OSError:  # pragma: no cover - platform-specific teardown
            pass

    def free(self, desc) -> None:
        """Close and unlink one segment before the arena itself closes
        (idempotent: freeing a descriptor twice is a no-op)."""
        shm = self._segments.pop(desc.name, None)
        if shm is None:
            return
        self._release(shm)
        _METRICS.gauge("parallel.shm_in_use_bytes", self.bytes_in_use)

    @property
    def bytes_in_use(self) -> int:
        return sum(shm.size for shm in self._segments.values())

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Close and unlink every owned segment.

        Idempotent AND reentrancy-safe: segments are *popped* out of the
        ownership dict before being released, so when the cleanup chain
        fires twice — explicit ``shutdown()`` plus the ``atexit`` hook,
        or a SIGTERM handler interrupting a close already in progress —
        the second pass sees an empty dict and each segment is unlinked
        exactly once.  (The old early-return-on-closed guard could skip
        the *rest* of the segments when a signal landed mid-loop.)
        """
        while self._segments:
            try:
                _, shm = self._segments.popitem()
            except KeyError:  # pragma: no cover - lost a race to a reentry
                break
            self._release(shm)
        self._closed = True
        _METRICS.gauge("parallel.shm_in_use_bytes", 0)
        _LIVE_ARENAS.discard(self)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self):  # pragma: no cover - GC order dependent
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass


# ---------------------------------------------------------------------------
# Attaching side (workers)
# ---------------------------------------------------------------------------

@contextmanager
def attached(desc: ArrayDesc) -> Iterator[np.ndarray]:
    """Attach a descriptor and yield a writable ndarray view.

    The mapping is closed (NOT unlinked — the owning arena does that) when
    the block exits; callers must not let views escape the block.  A
    descriptor whose segment was already torn down raises
    :class:`ShmError` rather than a bare ``FileNotFoundError``.
    """
    try:
        shm = _attach_untracked(desc.name)
    except FileNotFoundError as exc:
        raise ShmError(
            f"segment {desc.name!r} does not exist (torn down?)") from exc
    try:
        arr = np.ndarray(desc.shape, dtype=desc.dtype, buffer=shm.buf)
        yield arr
        del arr
    finally:
        shm.close()


def read_blob(desc: BlobDesc) -> bytes:
    """Copy a blob segment's logical contents out (then detach)."""
    try:
        shm = _attach_untracked(desc.name)
    except FileNotFoundError as exc:
        raise ShmError(
            f"segment {desc.name!r} does not exist (torn down?)") from exc
    try:
        return bytes(shm.buf[: desc.size])
    finally:
        shm.close()


def read_pickle(desc: BlobDesc):
    return pickle.loads(read_blob(desc))


# ---------------------------------------------------------------------------
# The janitor: reclaiming orphaned segments
# ---------------------------------------------------------------------------
#
# The cleanup chain above (close / atexit / SIGTERM) covers every exit a
# Python handler can observe — but SIGKILL, a hard OOM kill, or a power
# cut leave named ``repro*`` segments behind in /dev/shm, silently eating
# host memory until reboot.  Arena names embed the owning pid
# (``<prefix>_<pid>_<counter>``), so orphans are detectable: a segment
# whose owner is no longer alive belongs to nobody and can be unlinked.
# The janitor runs on pool startup and via ``repro doctor``.

#: Segment names owned by this module: prefix, owner pid, counter.
_SEGMENT_NAME_RE = re.compile(r"^repro[A-Za-z0-9_.]*?_(\d+)_\d+$")

#: Where POSIX named segments live on Linux (the only platform where the
#: janitor can enumerate them; elsewhere scan/reclaim return empty).
SHM_DIR = "/dev/shm"


def _pid_alive(pid: int) -> bool:
    """True when ``pid`` names a live process we can see."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    except OSError:  # pragma: no cover - conservative: assume alive
        return True
    return True


def segment_owner_pid(name: str) -> Optional[int]:
    """The pid embedded in a repro segment name, or None if the name is
    not ours (never touch segments other software owns)."""
    m = _SEGMENT_NAME_RE.match(name)
    return int(m.group(1)) if m else None


def scan_orphans(shm_dir: str = SHM_DIR) -> List[str]:
    """Names of repro-owned segments whose owning process is dead."""
    try:
        names = os.listdir(shm_dir)
    except OSError:  # non-Linux or no tmpfs: nothing to scan
        return []
    orphans = []
    for name in sorted(names):
        pid = segment_owner_pid(name)
        if pid is not None and pid != os.getpid() and not _pid_alive(pid):
            orphans.append(name)
    return orphans


def reclaim_orphans(shm_dir: str = SHM_DIR) -> List[str]:
    """Unlink every orphaned repro segment; returns the reclaimed names.

    Unlink races are expected (two pools starting at once, a doctor run
    next to a pool): ``FileNotFoundError`` means someone else already
    reclaimed it, which is success, not failure.
    """
    reclaimed = []
    for name in scan_orphans(shm_dir):
        try:
            os.unlink(os.path.join(shm_dir, name))
        except FileNotFoundError:
            continue  # lost the race: already reclaimed
        except OSError:  # pragma: no cover - permissions of foreign user
            continue
        reclaimed.append(name)
    if reclaimed:
        _METRICS.inc("parallel.janitor_reclaimed", len(reclaimed))
        _FLIGHT.record("janitor", reclaimed=len(reclaimed),
                       names=reclaimed[:8])
    return reclaimed
