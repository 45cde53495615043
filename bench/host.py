"""Host facts, the noise sentinel, memory high-water marks and the
end-of-run leak checks."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import time
from typing import Iterable, List

import numpy as np

SHM_DIR = "/dev/shm"


def cpu_count() -> int:
    """CPUs this process may run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def bench_workers() -> int:
    """Workers for pooled paths: never more busy processes than CPUs."""
    return min(2, cpu_count())


class Calibrator:
    """A fixed, compute-bound numpy loop: the host-speed reference.

    This host runs in regimes tens of seconds long in which everything
    compute-bound is up to a third slower (a 2^17 prove read 0.41 s, then
    0.62 s, then 0.41 s again inside one process; a field multiply timed
    beside it moved with it, their ratio staying within 3%).  A burst of
    this loop beside every timed cycle is what lets a run say how fast the
    host was while it measured.

    The loop owes nothing to ``src/``: a 64x64-bit multiply-and-fold
    written out in numpy over 64 cache-resident tiles of 2^14 words, the
    same kind of work the prover's kernels do, so a change to the program
    cannot move the reference.
    """

    TILE = 1 << 14
    TILES = 64
    PASSES = 3

    def __init__(self) -> None:
        t0 = time.perf_counter()
        rng = np.random.default_rng(12345)
        shape = (self.TILES, self.TILE)
        self.a = rng.integers(0, 1 << 63, size=shape, dtype=np.uint64)
        self.b = rng.integers(0, 1 << 63, size=shape, dtype=np.uint64)
        self.scratch = [np.empty(self.TILE, dtype=np.uint64)
                        for _ in range(6)]
        self.carry = np.empty(self.TILE, dtype=bool)
        self.acc = np.zeros(self.TILE, dtype=np.uint64)
        #: Seconds this object has spent, construction included, so a
        #: caller can take them out of an enclosing timing.
        self.spent_s = time.perf_counter() - t0

    def _one_pass(self) -> float:
        ah, al, bh, bl, x, y = self.scratch
        mask, sh = np.uint64(0xFFFFFFFF), np.uint64(32)
        t0 = time.perf_counter()
        for a, b in zip(self.a, self.b):
            np.right_shift(a, sh, out=ah)
            np.bitwise_and(a, mask, out=al)
            np.right_shift(b, sh, out=bh)
            np.bitwise_and(b, mask, out=bl)
            np.multiply(al, bl, out=x)
            np.multiply(ah, bl, out=y)
            np.multiply(al, bh, out=bl)
            np.add(y, bl, out=y)
            np.multiply(ah, bh, out=ah)
            np.left_shift(y, sh, out=bl)
            np.add(x, bl, out=x)
            np.less(x, bl, out=self.carry)
            np.add(ah, self.carry, out=ah)
            np.right_shift(y, sh, out=y)
            np.add(ah, y, out=ah)
            np.multiply(ah, mask, out=ah)
            np.add(x, ah, out=x)
            np.add(self.acc, x, out=self.acc)
        return time.perf_counter() - t0

    def burst(self) -> float:
        """Seconds of the fastest of three passes (~9 ms each at this
        host's full speed; the fastest, because a pass is only ever
        slowed)."""
        t0 = time.perf_counter()
        best = min(self._one_pass() for _ in range(self.PASSES))
        self.spent_s += time.perf_counter() - t0
        return best


def facts() -> dict:
    """What a reader needs to judge whether two result files compare."""
    return {
        "host.cpu_count": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit_hash(),
    }


def commit_hash() -> str:
    """HEAD of the enclosing git repository, or "unknown" (the driver's
    checkout is not a repository)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)), timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# -- memory -----------------------------------------------------------------

def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest high-water RSS among children already waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, MB (0.0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


# -- leak checks --------------------------------------------------------------

def shm_segments_of(pids: Iterable[int]) -> List[str]:
    """Names of prover shared-memory segments owned by any of ``pids``."""
    from repro.parallel.shm import segment_owner_pid

    owners = set(pids)
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return []
    return sorted(n for n in names if segment_owner_pid(n) in owners)
