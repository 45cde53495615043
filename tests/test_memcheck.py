"""Tests for Spark-style offline memory checking (multiset hashes)."""

import pytest

from repro.field.goldilocks import MODULUS
from repro.hashing import Transcript
from repro.spartan.memcheck import (
    DEFAULT_INSTANTIATIONS,
    MemoryTrace,
    check_sets,
    check_trace,
    multiset_hash,
)


class TestMultisetHash:
    def test_order_independent(self):
        s1 = [(0, 5, 1), (3, 7, 2), (1, 1, 0)]
        s2 = list(reversed(s1))
        assert multiset_hash(s1, 99, 1234) == multiset_hash(s2, 99, 1234)

    def test_multiplicity_sensitive(self):
        assert multiset_hash([(0, 5, 1)], 9, 7) != \
            multiset_hash([(0, 5, 1), (0, 5, 1)], 9, 7)

    def test_value_sensitive(self):
        assert multiset_hash([(0, 5, 1)], 9, 7) != \
            multiset_hash([(0, 6, 1)], 9, 7)

    def test_empty_set(self):
        assert multiset_hash([], 9, 7) == 1


class TestMemoryTrace:
    def test_honest_trace_accepted(self):
        trace = MemoryTrace(initial=[10, 20, 30, 40])
        for addr in (0, 2, 2, 1, 3, 0):
            trace.read(addr)
        assert check_trace(trace, Transcript())

    def test_read_returns_value(self):
        trace = MemoryTrace(initial=[10, 20])
        assert trace.read(1) == 20
        assert trace.read(1) == 20

    def test_timestamps_advance(self):
        trace = MemoryTrace(initial=[1, 2])
        trace.read(0)
        trace.read(0)
        assert trace.reads[0][2] == 0   # first read sees init timestamp
        assert trace.reads[1][2] == 1   # second sees the bumped one

    def test_forged_read_value_rejected(self):
        trace = MemoryTrace(initial=[10, 20, 30, 40])
        for addr in (0, 1, 2, 3):
            trace.read(addr)
        # Claim a read returned a different value.
        a, v, t = trace.reads[2]
        trace.reads[2] = (a, (v + 1) % MODULUS, t)
        assert not check_trace(trace, Transcript())

    def test_replayed_timestamp_rejected(self):
        """Reusing a stale timestamp (a double-spend-style attack) breaks
        the multiset equality."""
        trace = MemoryTrace(initial=[10, 20])
        trace.read(0)
        trace.read(0)
        a, v, t = trace.reads[1]
        trace.reads[1] = (a, v, 0)  # pretend we read the initial version
        assert not check_trace(trace, Transcript())

    def test_dropped_read_rejected(self):
        trace = MemoryTrace(initial=[10, 20])
        trace.read(0)
        trace.read(1)
        trace.reads.pop()
        assert not check_trace(trace, Transcript())

    def test_extra_write_rejected(self):
        trace = MemoryTrace(initial=[10, 20])
        trace.read(0)
        trace.writes.append((1, 99, 5))
        assert not check_trace(trace, Transcript())


class TestCheckSets:
    def test_cardinality_mismatch_short_circuits(self):
        assert not check_sets([(0, 1, 0)], [], [], [], Transcript())

    def test_permuted_sets_accepted(self):
        trace = MemoryTrace(initial=[5, 6, 7, 8])
        for addr in (3, 1, 1, 0, 2):
            trace.read(addr)
        reads = list(reversed(trace.reads))
        writes = list(reversed(trace.writes))
        assert check_sets(trace.init_set(), writes, reads,
                          trace.final_set(), Transcript())

    def test_instantiation_count(self):
        assert DEFAULT_INSTANTIATIONS == 4  # Sec. VII-A
