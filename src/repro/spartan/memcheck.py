"""Offline memory checking with multiset hashes — the Spark primitive
behind Spartan's sparse-matrix commitments (Sec. VII-A: "For the multiset
hash function in Spartan, we run 4 separate instantiations (i.e.,
different gamma values)").

Spark proves that the prover's claimed sequence of reads from a committed
table is consistent, using Blum-style offline memory checking: every read
of address a returning value v at timestamp t is paired with a write-back
at the new timestamp, and the invariant

    init_set  U  write_set   ==   read_set  U  final_set     (as multisets)

holds iff every read returned the last value written.  Multiset equality
is checked by comparing randomized hashes

    H_gamma(S) = prod_{(a, v, t) in S} (tau - (a + gamma*v + gamma^2*t)),

whose collision probability is |S| * deg / p per (gamma, tau) pair — over
the 64-bit Goldilocks field that is too weak alone, hence the paper's 4
independent instantiations (Sec. VII-A), mirrored here.

The module provides the native checker only.  Neither the prover, the
verifier nor the NoCap model calls it: the model charges Spark through
its own sumcheck inventory (``nocap.constants.SPARK_SUMCHECKS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..field.goldilocks import MODULUS
from ..hashing.transcript import Transcript

#: Paper parameter: independent multiset-hash instantiations.
DEFAULT_INSTANTIATIONS = 4

Tuple3 = Tuple[int, int, int]  # (address, value, timestamp)


def multiset_hash(tuples: Sequence[Tuple3], gamma: int, tau: int) -> int:
    """H(S) = prod (tau - (a + gamma*v + gamma^2*t)) over GF(p)."""
    gamma %= MODULUS
    tau %= MODULUS
    g2 = gamma * gamma % MODULUS
    acc = 1
    for a, v, t in tuples:
        fingerprint = (a + gamma * v + g2 * t) % MODULUS
        acc = acc * ((tau - fingerprint) % MODULUS) % MODULUS
    return acc


@dataclass
class MemoryTrace:
    """A timestamped read trace over an initial table (Spark's access
    pattern: the circuit's sparse-matrix row/col indices reading from the
    eq tables)."""

    initial: List[int]
    reads: List[Tuple3] = field(default_factory=list)   # read set RS
    writes: List[Tuple3] = field(default_factory=list)  # write set WS
    _state: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    _clock: int = 0

    def __post_init__(self):
        for addr, value in enumerate(self.initial):
            self._state[addr] = (value % MODULUS, 0)

    def read(self, addr: int) -> int:
        """Perform one checked read: log (a, v, t_old) in RS and the
        timestamp-bumped write-back in WS."""
        value, t_old = self._state[addr]
        self._clock += 1
        self.reads.append((addr, value, t_old))
        self.writes.append((addr, value, self._clock))
        self._state[addr] = (value, self._clock)
        return value

    def init_set(self) -> List[Tuple3]:
        return [(a, v % MODULUS, 0) for a, v in enumerate(self.initial)]

    def final_set(self) -> List[Tuple3]:
        return [(a, v, t) for a, (v, t) in sorted(self._state.items())]


def check_trace(trace: MemoryTrace, transcript: Transcript,
                instantiations: int = DEFAULT_INSTANTIATIONS) -> bool:
    """Verify init U WS == RS U final with ``instantiations`` independent
    (gamma, tau) pairs."""
    return check_sets(trace.init_set(), trace.writes, trace.reads,
                      trace.final_set(), transcript, instantiations)


def check_sets(init_set: Sequence[Tuple3], write_set: Sequence[Tuple3],
               read_set: Sequence[Tuple3], final_set: Sequence[Tuple3],
               transcript: Transcript,
               instantiations: int = DEFAULT_INSTANTIATIONS) -> bool:
    """The multiset-hash equality check on explicit sets."""
    if len(init_set) + len(write_set) != len(read_set) + len(final_set):
        return False
    for k in range(instantiations):
        gamma = transcript.challenge_field(b"memcheck/gamma%d" % k)
        tau = transcript.challenge_field(b"memcheck/tau%d" % k)
        lhs = (multiset_hash(init_set, gamma, tau)
               * multiset_hash(write_set, gamma, tau)) % MODULUS
        rhs = (multiset_hash(read_set, gamma, tau)
               * multiset_hash(final_set, gamma, tau)) % MODULUS
        if lhs != rhs:
            return False
    return True
