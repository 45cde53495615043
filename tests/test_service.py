"""End-to-end tests for the proving service (daemon, caches, client)
over a real unix socket.

The daemon runs in-process, started and stopped directly — real
frames, real sockets, its real connection and job threads — so these
tests exercise the exact dispatch path ``repro serve`` uses while
keeping direct access to the :class:`~repro.service.server.ProvingService`
internals (to plug the job thread for deterministic backpressure, and to
arm ``REPRO_FAULTS`` plans the job thread will see).
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import (
    ConfigError,
    DeserializationError,
    ProverTimeoutError,
)
from repro import obs
from repro.service import (
    QueueFullError,
    ServiceClient,
    ServiceError,
    proof_cache_key,
    protocol,
)
from repro.service import server
from repro.service.server import ProvingService, ServiceConfig
from repro.service.cache import ProofCache


# ---------------------------------------------------------------------------
# Harness: run a ProvingService in-process
# ---------------------------------------------------------------------------

class _LiveService:
    """A started service; ``thread`` is its job thread, which ends once
    the service has drained."""

    def __init__(self, service):
        self.service = service
        self.thread = service._job_thread

    @property
    def address(self):
        return self.service.address

    def stop(self, timeout=30.0):
        # stop() waits for a stop already under way.
        stopper = threading.Thread(target=self.service.stop, daemon=True)
        stopper.start()
        stopper.join(timeout)
        assert not stopper.is_alive(), "service did not stop"
        assert not self.thread.is_alive(), "service job thread leaked"


@contextlib.contextmanager
def running_service(sock_path, **overrides):
    overrides.setdefault("unix_socket", str(sock_path))
    overrides.setdefault("preset", "test-fast")
    service = ProvingService(ServiceConfig(**overrides))
    service.start()
    live = _LiveService(service)
    try:
        yield live
    finally:
        live.stop()


@pytest.fixture
def sock_path(tmp_path):
    return str(tmp_path / "repro.sock")


@contextlib.contextmanager
def plugged(service):
    """Hold every prove job inside its body — started, the job thread
    taken — until the yielded event is set."""
    release = threading.Event()
    real_run_prove = service._run_prove

    def plugged_run_prove(job):
        release.wait(30)
        real_run_prove(job)

    service._run_prove = plugged_run_prove
    try:
        yield release
    finally:
        release.set()


def wait_running(svc, job_id):
    deadline = time.monotonic() + 10
    while svc.status(job_id)["state"] != "running":
        assert time.monotonic() < deadline
        time.sleep(0.01)


def raw_socket(sock_path):
    """A bare connection to the daemon, for hand-built frames."""
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(10)
    raw.connect(sock_path)
    return raw


def prove_job(svc, seed, **extra):
    return svc.submit("prove", circuit_id="litmus", seed=seed, **extra)


# ---------------------------------------------------------------------------
# Cache unit tests
# ---------------------------------------------------------------------------

class TestEnvelopeSerializedOnce:
    def test_daemon_prove_writes_one_envelope(self, sock_path, monkeypatch):
        """The daemon ships the envelope ``prove`` wrote for its report."""
        from repro.service.server import Job
        from repro.snark import ProofBundle, envelope

        calls = []
        real = envelope.proof_to_bytes

        def counting(proof, **kwargs):
            calls.append(1)
            return real(proof, **kwargs)

        monkeypatch.setattr(envelope, "proof_to_bytes", counting)
        service = ProvingService(ServiceConfig(unix_socket=sock_path,
                                               preset="test-fast"))
        job = Job(job_id="j", kind="prove", circuit_id="litmus",
                  preset="test-fast", seed=4)
        service._run_prove(job)
        assert len(calls) == 1
        assert job.report["proof_size_bytes"] == len(job.envelope)
        assert ProofBundle.from_bytes(job.envelope).circuit_id == "litmus"


class TestLRUBytesCache:
    """The proof cache is an LRU bounded by its envelopes' bytes."""

    def test_evicts_lru_by_bytes(self):
        c = ProofCache(max_bytes=100)
        c.put("a", b"A" * 40)
        c.put("b", b"B" * 40)
        assert c.get("a") == b"A" * 40     # refresh a
        c.put("c", b"C" * 40)              # evicts b (LRU)
        assert c.get("b") is None
        assert c.get("a") == b"A" * 40 and c.get("c") == b"C" * 40
        assert c.evictions == 1 and c.bytes == 80

    def test_oversized_value_skipped(self):
        c = ProofCache(max_bytes=10)
        c.put("big", b"x" * 1000)
        assert c.get("big") is None and c.bytes == 0

    def test_peek_counts_nothing(self):
        """The admission probe is a peek: a miss counts nothing (the job
        body's ``get`` will), a found envelope counts its one hit, and
        neither refreshes recency."""
        c = ProofCache(max_bytes=100)
        c.put("k", b"v")
        c.put("new", b"n")
        assert c.probe("nope") is None
        assert (c.hits, c.misses) == (0, 0)
        assert c.probe("k") == b"v"
        assert (c.hits, c.misses) == (1, 0)
        assert list(c._entries) == ["k", "new"]

    def test_peek_survives_eviction_between_calls(self):
        """``probe`` runs on a connection thread while the job thread's
        ``put`` may evict the same LRU-oldest key at any moment.  The
        ``_entries`` stand-in deletes a key as it returns it — the
        eviction landing between lookup and reorder — and ``probe`` must
        still answer; nor may it refresh recency, so the probed key stays
        next to go."""
        from collections import OrderedDict

        class EvictedOnRead(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                self.pop(key, None)
                return value

        c = ProofCache(max_bytes=100)
        c.put("old", b"O" * 40)
        c.put("new", b"N" * 40)
        entries = c._entries
        c._entries = EvictedOnRead(entries)
        assert c.probe("old") == b"O" * 40
        c._entries = entries
        assert c.probe("old") == b"O" * 40
        assert list(c._entries) == ["old", "new"]

    def test_proof_cache_key_separates_inputs(self):
        import numpy as np

        pub = np.arange(4, dtype=np.uint64)
        base = proof_cache_key("test-fast", "sha", pub, 1)
        assert base == proof_cache_key("test-fast", "sha", pub, 1)
        assert base != proof_cache_key("test-fast", "sha", pub, 2)
        assert base != proof_cache_key("test-fast", "aes", pub, 1)
        assert base != proof_cache_key("paper-128bit", "sha", pub, 1)

    def test_proof_cache_key_follows_envelope_version(self, monkeypatch):
        """Envelopes of two formats never alias: the key prefix is derived
        from the envelope's VERSION, not spelled beside it."""
        import numpy as np

        from repro.service import cache
        from repro.snark import envelope

        assert cache.ENVELOPE_VERSION == envelope.VERSION == 7
        pub = np.arange(4, dtype=np.uint64)
        current = proof_cache_key("test-fast", "sha", pub, 1)
        monkeypatch.setattr(cache, "ENVELOPE_VERSION", envelope.VERSION + 1)
        assert proof_cache_key("test-fast", "sha", pub, 1) != current
        # A v2 daemon's key for the same request is not this daemon's.
        monkeypatch.setattr(cache, "ENVELOPE_VERSION", 2)
        assert proof_cache_key("test-fast", "sha", pub, 1) != current


def _owned_by_walk(r1cs):
    """Bytes of the distinct buffers under ``r1cs``'s SpMV layout that are
    not the CSR arrays of A, B, C themselves (a view counts 0)."""
    import numpy as np

    def root(arr):
        while arr.base is not None:
            arr = arr.base
        return arr

    csr = {id(root(arr)) for m in (r1cs.a, r1cs.b, r1cs.c)
           for arr in (m.indptr, m.cols, m.vals)}
    stacked, arrays = r1cs._stacked(), []
    for side in (stacked._forward, stacked._transposed):
        for rows, _pieces, idx, vals in side.groups:
            arrays += [idx, vals] + ([rows] if isinstance(rows, np.ndarray)
                                     else [])
        if side.residual is not None:
            rows, res = side.residual
            arrays += [res.indptr, res.cols, res.vals] + [
                a for a in (rows, *res._group_plan()) if a is not None]
    roots = {id(root(arr)): root(arr) for arr in arrays}
    return sum(r.nbytes for key, r in roots.items() if key not in csr)


def _csr_bytes(r1cs):
    """12 B per stored non-zero (int32 column, uint64 value), 4 B per
    stored row of each distinct ``indptr`` (plus its closing offset) and
    4 B per row of each row map."""
    mats = (r1cs.a, r1cs.b, r1cs.c)
    indptrs = {id(m.indptr): m.num_stored + 1 for m in mats}
    maps = [m.num_rows for m in mats if m.row_map is not None]
    return 12 * sum(m.stored_nnz for m in mats) \
        + 4 * sum(indptrs.values()) + 4 * sum(maps)


class TestKeyStoresInt32Indices:
    """A key stores int32 indices and no row id per non-zero: every index
    array under an ``R1CS`` and its SpMV layout (row offsets, columns, row
    maps, plane ``idx``, output rows) is int32, and ``R1CS.nbytes`` counts
    them at 4 B each: 12 B per stored non-zero plus 4 B per stored row of
    CSR and 4 B per row of a row map, plus the walked layout."""

    @staticmethod
    def _index_arrays(r1cs):
        stacked, arrays = r1cs._stacked(), []
        for m in (r1cs.a, r1cs.b, r1cs.c):
            arrays += [m.indptr, m.cols] + (
                [m.row_map] if m.row_map is not None else [])
        for side in (stacked._forward, stacked._transposed):
            for rows, _pieces, idx, _vals in side.groups:
                arrays += [idx] + ([rows] if not isinstance(rows, slice)
                                   else [])
            if side.residual is not None:
                rows, res = side.residual
                starts, row_ids = res._group_plan()
                assert row_ids is None       # every residual row has entries
                arrays += [res.indptr, res.cols, starts] + (
                    [rows] if rows is not None else [])
        return arrays

    @pytest.mark.parametrize("name", ["synthetic", "aes", "sha"])
    def test_every_index_is_int32_and_nbytes_is_a_hand_count(self, name):
        import numpy as np

        from repro.workloads import synthetic_r1cs
        from repro.workloads.registry import build_workload

        r1cs = synthetic_r1cs(16)[0] if name == "synthetic" \
            else build_workload(name)[1].compile()[0]
        arrays = self._index_arrays(r1cs)
        assert {arr.dtype for arr in arrays} == {np.dtype(np.int32)}
        assert r1cs.nbytes == _csr_bytes(r1cs) + _owned_by_walk(r1cs)
        stacked = r1cs._stacked()
        matrices = [r1cs.a, r1cs.b, r1cs.c] + [
            side.residual[1] for side in (stacked._forward,
                                          stacked._transposed)
            if side.residual is not None]
        for m in matrices:      # no row array with one entry per non-zero
            assert not any(isinstance(v, np.ndarray)
                           and len(v) in (m.nnz, m.stored_nnz)
                           and v.dtype == np.int32 and v is not m.cols
                           for v in vars(m).values())
        if name == "aes":       # B's row map is one of the arrays checked
            assert any(arr is r1cs.b.row_map for arr in arrays)


class TestKeyCacheSizing:
    """A KeyCache entry is sized by what the key holds: the CSR arrays
    plus the SpMV layout, built at insert."""

    def test_sha_entry_is_a_hand_count(self):
        import numpy as np

        from repro.service import KeyCache

        cache = KeyCache()
        entry = cache.get_or_build("sha", "test-fast")
        r1cs = entry.pk.r1cs
        assert r1cs._stacked_cache is not None        # built at insert
        mats = (r1cs.a, r1cs.b, r1cs.c)
        n = r1cs.shape.num_constraints
        # The key: 12 B per non-zero plus 4 B per row of each of A, B, C.
        assert _csr_bytes(r1cs) == 12 * r1cs.nnz + 3 * 4 * (n + 1)
        # sha is all residual: per direction one CSR copy of the entries
        # over just the output rows that hold one (12 B per non-zero, 8 B
        # per such row: int32 offset and row id, and a closing offset).
        out_rows = sum(len(np.unique(m.rows)) for m in mats)
        out_cols = len(np.unique(np.concatenate([m.cols for m in mats])))
        assert out_rows < 3 * n and out_cols < n   # so row ids are stored
        layout = 2 * 12 * r1cs.nnz + 8 * (out_rows + out_cols) + 2 * 4
        assert r1cs.nbytes == 12 * r1cs.nnz + 3 * 4 * (n + 1) + layout
        assert cache.stats()["bytes"] == r1cs.nbytes + entry.public.nbytes \
            + entry.witness.nbytes

    def test_aes_entry_counts_each_buffer_once(self):
        from repro.service import KeyCache

        cache = KeyCache()
        entry = cache.get_or_build("aes", "test-fast")
        r1cs = entry.pk.r1cs
        layout = r1cs._stacked()
        assert layout.nbytes == _owned_by_walk(r1cs)
        assert cache.stats()["bytes"] == _csr_bytes(r1cs) + layout.nbytes \
            + entry.public.nbytes + entry.witness.nbytes
        # B alone has a row map: its stored rows and entries, not its
        # 700,458 non-zeros, are what the key holds.
        n = r1cs.shape.num_constraints
        a, b, c = r1cs.a, r1cs.b, r1cs.c
        assert a.row_map is None is c.row_map
        assert (b.nnz, b.stored_nnz, b.num_stored) == (700458, 6747, 1393)
        assert _csr_bytes(r1cs) == 12 * (a.nnz + 6747 + c.nnz) \
            + 4 * (2 * (n + 1) + 1393 + 1) + 4 * n

    def test_synthetic_forward_views_are_not_double_counted(self):
        from repro.workloads import synthetic_r1cs

        r1cs = synthetic_r1cs(15)[0]      # C's L = 1 group fills a tile
        layout = r1cs._stacked()
        assert layout._forward.nbytes == 0 == _owned_by_walk(r1cs) \
            - layout._transposed.nbytes
        # A and B are fixed-width rows: they share one indptr.
        n = r1cs.shape.num_constraints
        assert r1cs.a.indptr is r1cs.b.indptr
        assert r1cs.nbytes == 12 * r1cs.nnz + 2 * 4 * (n + 1) \
            + layout._transposed.nbytes


class TestKeySpace:
    """The daemon keeps every statement it compiles, with no byte budget,
    because its key space is the registry's: 5 circuit ids, which hold
    4,210,032 B with every layout built.  The compiled R1CS does not
    depend on the preset, so the second preset of an id compiles
    nothing: all ten (circuit, preset) requests are 5 entries.  A
    registry statement that outgrows the ceiling (a paper-scale entry,
    say) fails here and reopens the question of a budget rather than
    growing the cache silently."""

    CEILING_BYTES = 6 * 1024 * 1024

    def test_one_service_holds_all_ten_keys(self):
        from repro.snark.params import PRESETS
        from repro.workloads.registry import resolve_workload, workload_choices

        service = ProvingService(ServiceConfig())   # never started
        ids = sorted({resolve_workload(n) for n in workload_choices()})
        for preset in sorted(PRESETS):
            for circuit_id in ids:
                entry = service.key_cache.get_or_build(circuit_id, preset)
                assert entry.pk.preset.name == entry.vk.preset.name == preset
                assert entry.pk.r1cs is service.key_cache.peek(
                    circuit_id).pk.r1cs         # one compiled statement
        for circuit_id in ids:          # a second request builds nothing
            service.key_cache.get_or_build(circuit_id, "test-fast")
        stats = service.stats()["pk_cache"]
        assert len(ids) * len(PRESETS) == 10
        assert {k: v for k, v in stats.items() if k != "bytes"} == {
            "entries": 5, "hits": 10, "misses": 5}
        assert stats["bytes"] <= self.CEILING_BYTES

    def test_unknown_preset_refused_with_the_statement_built(self):
        """The memo is keyed by circuit id, so a built statement must not
        answer for a preset that does not exist."""
        from repro.errors import ConfigError

        cache = ProvingService(ServiceConfig()).key_cache
        cache.get_or_build("litmus", "test-fast")
        with pytest.raises(ConfigError, match="unknown security preset"):
            cache.get_or_build("litmus", "no-such-preset")
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 1


# ---------------------------------------------------------------------------
# End-to-end over the unix socket
# ---------------------------------------------------------------------------

def _relabelled(envelope, circuit_id):
    """``envelope`` with its circuit-id label replaced, bytes only."""
    from repro.snark.envelope import layout

    spans = {s.path: s for s in layout(envelope)}
    label = circuit_id.encode("utf-8")
    return (envelope[:spans["envelope.circuit.count"].offset]
            + bytes([len(label)]) + label
            + envelope[spans["envelope.circuit"].end:])


class TestCircuitIdIsALabel:
    """The envelope's circuit id names the statement and binds nothing:
    neither the proof nor ``verify(vk, bundle)`` reads it
    (docs/PROTOCOL.md §1, docs/SERVICE.md).  These pin that behaviour as
    it stands; binding the label (ROADMAP 15(b)'s v8 bump) must flip
    (a)."""

    def test_a_relabelled_envelope_parses_and_verifies(self):
        from repro.snark import TEST, ProofBundle, prove, setup, verify
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload("litmus")
        r1cs, public, witness = circuit.compile()
        pk, vk = setup(r1cs, TEST)
        envelope = prove(pk, public, witness, seed=5,
                         circuit_id=circuit_id).to_bytes()
        relabelled = _relabelled(envelope, "sha")
        assert relabelled != envelope
        bundle = ProofBundle.from_bytes(relabelled)
        assert bundle.circuit_id == "sha"
        assert bundle.to_bytes() == relabelled
        assert verify(vk, bundle)

    def test_b_daemon_checks_an_unnamed_request_against_the_label(
            self, sock_path):
        """A verify request that names no circuit is checked against the
        label's circuit, and the reply names it; a request that names
        ``circuit_id`` is checked against the named one."""
        with running_service(sock_path), ServiceClient(sock_path) as svc:
            relabelled = _relabelled(svc.prove("litmus", seed=5), "sha")
            reply = svc.result(svc.submit("verify", envelope=relabelled),
                               wait_s=60)
            assert reply["state"] == "done"
            assert (reply["circuit_id"], reply["valid"]) == ("sha", False)
            named = svc.result(svc.submit("verify", envelope=relabelled,
                                          circuit_id="litmus"), wait_s=60)
            assert (named["circuit_id"], named["valid"]) == ("litmus", True)


class TestServiceEndToEnd:
    def test_mixed_jobs_roundtrip(self, sock_path, monkeypatch):
        """Mixed prove/verify jobs through the live daemon; the proved
        envelope verifies both through the service and locally.  The
        daemon answers from its own attributes (``stats``): it never
        opens a trace, so its jobs book no span and no kernel count."""
        opened = []

        class SpyTracer(obs.Tracer):
            def __init__(self):
                opened.append(threading.current_thread().name)
                super().__init__()

        monkeypatch.setattr(obs, "Tracer", SpyTracer)
        with running_service(sock_path) as live:
            with ServiceClient(sock_path) as svc:
                pong = svc.ping()
                assert pong["version"] == protocol.PROTOCOL_VERSION

                env_a = svc.prove("litmus", seed=7)
                env_b = svc.prove("sha", seed=3)
                assert env_a[:4] == b"NCPE" and env_b[:4] == b"NCPE"
                assert svc.prove("litmus", seed=7) == env_a  # cached repeat
                assert svc.verify(env_a)
                assert svc.verify(env_b)

                # The service envelope is a plain NCPE bundle: the local
                # lifecycle API accepts it unchanged.
                from repro import ProofBundle, setup, verify
                from repro.snark import preset_by_name
                from repro.workloads.registry import build_workload

                _, circuit = build_workload("litmus")
                r1cs, _, _ = circuit.compile()
                _, vk = setup(r1cs, preset_by_name("test-fast"))
                assert verify(vk, ProofBundle.from_bytes(env_a))

                stats = svc.stats()
                assert stats["jobs_done"] >= 4
                assert stats["jobs_failed"] == 0
                assert stats["proof_cache"]["hits"] == 1
            assert live.service._jobs_failed == 0
            assert obs.get_tracer() is None
        assert opened == []

    def test_status_lifecycle_and_unknown_job(self, sock_path):
        with running_service(sock_path) as live:
            with ServiceClient(sock_path) as svc:
                t0 = time.monotonic()
                job_id = svc.submit("prove", circuit_id="litmus", seed=1)
                queued_id = svc.submit("prove", circuit_id="litmus", seed=2)
                result = svc.result(job_id, wait_s=60)
                wall = time.monotonic() - t0
                assert result["state"] == "done"
                status = svc.status(job_id)
                assert status["state"] == "done"
                assert status["circuit_id"] == "litmus"
                # Queue wait and run time are reported apart and nest
                # inside what the client measured, submit to reply.
                for reply in (result, status):
                    assert reply["wait_s"] >= 0 and reply["run_s"] > 0
                    assert reply["wait_s"] + reply["run_s"] <= wall
                # One job thread: the second job started after the first.
                queued = svc.result(queued_id, wait_s=60)
                assert queued["wait_s"] > 0
                jobs = live.service.jobs
                assert jobs[queued_id].started_at > jobs[job_id].started_at
                with pytest.raises(ServiceError) as ei:
                    svc.status("no-such-job")
                assert ei.value.code == protocol.E_NOT_FOUND

    def test_backpressure_and_fifo_order(self, sock_path):
        """One cap, the depth bound, and FIFO is the fairness: with the
        job thread plugged, three anonymous connections on the one
        unix socket are admitted alike up to the bound; the submission
        past it gets the typed 429; once the thread frees, jobs start in
        submission order whichever connection sent them — a request still
        carrying the retired ``priority`` / ``client`` fields is served
        in its turn."""
        with running_service(sock_path, queue_depth=4) as live, \
                plugged(live.service) as release, \
                ServiceClient(sock_path) as ann, \
                ServiceClient(sock_path) as bob, \
                ServiceClient(sock_path) as cat:
            ids = [prove_job(ann, 1)]
            wait_running(ann, ids[0])  # holds the thread, not the queue
            ids.append(prove_job(bob, 2))
            ids.append(cat.request({
                "op": "submit", "kind": "prove", "circuit_id": "litmus",
                "seed": 3, "priority": -5, "client": "hog"})["job_id"])
            ids.append(prove_job(ann, 4))
            ids.append(prove_job(cat, 5))
            with pytest.raises(QueueFullError, match="queue full"):
                prove_job(bob, 6)

            queue = cat.stats()["queue"]
            assert queue["rejected_full"] == 1
            assert queue["rejected_client"] == 0
            assert queue["depth"] == queue["peak_depth"] == 4
            assert queue["max_depth"] == 4 and queue["enqueued"] == 5

            release.set()
            for job_id in ids:
                assert bob.result(job_id, wait_s=60)["state"] == "done"
            started = [live.service.jobs[j].started_at for j in ids]
            assert started == sorted(set(started))
            assert bob.stats()["queue"]["depth"] == 0

    def test_finished_jobs_retained_by_bytes(self, sock_path, monkeypatch):
        """Finished jobs are forgotten oldest-first once their envelopes
        pass the byte budget; a verify job drops its input when it
        finishes; queued and running jobs are never forgotten."""
        with running_service(sock_path) as live, \
                ServiceClient(sock_path) as svc:
            first = prove_job(svc, 1)
            envelope = protocol.decode_blob(
                svc.result(first, wait_s=60)["envelope"])
            monkeypatch.setattr(server, "RESULT_RETENTION_BYTES",
                                2 * len(envelope))
            checked = svc.submit("verify", envelope=envelope)
            assert svc.result(checked, wait_s=60)["valid"] is True
            assert live.service.jobs[checked].envelope is None

            with plugged(live.service) as release:
                running = prove_job(svc, 2)
                wait_running(svc, running)
                queued = prove_job(svc, 3)
                # Cached repeats finish at admission, thread plugged or not:
                # three more copies of the envelope, budget two.
                repeats = [prove_job(svc, 1) for _ in range(3)]
                for gone in (first, checked, repeats[0]):
                    with pytest.raises(ServiceError) as ei:
                        svc.status(gone)
                    assert ei.value.code == protocol.E_NOT_FOUND
                newest = svc.result(repeats[-1])
                assert protocol.decode_blob(newest["envelope"]) == envelope
                assert svc.status(running)["state"] == "running"
                assert svc.status(queued)["state"] == "queued"
                release.set()
                assert svc.result(queued, wait_s=60)["state"] == "done"
            service = live.service
            assert service._finished_bytes <= 2 * len(envelope)
            assert len(service.jobs) == len(service._finished)

    def test_proof_cache_hits_byte_identical(self, sock_path):
        with running_service(sock_path), ServiceClient(sock_path) as svc:
            first = svc.prove("litmus", seed=11)
            again = svc.prove("litmus", seed=11)
            assert again == first  # byte-identical envelope

            # An unseeded request draws fresh masks: it is never answered
            # from the cache and its proof is never stored.
            free = [svc.result(svc.submit("prove", circuit_id="litmus"),
                               wait_s=60) for _ in range(2)]
            assert [reply["cached"] for reply in free] == [False, False]
            free_a, free_b = (protocol.decode_blob(reply["envelope"])
                              for reply in free)
            assert free_a != free_b and first not in (free_a, free_b)

            stats = svc.stats()
            assert stats["proof_cache"]["hits"] == 1
            assert stats["proof_cache"]["entries"] == 1
            assert stats["pk_cache"]["entries"] == 1  # keys built once

    def test_verify_resolves_circuit_alias(self, sock_path):
        """A verify naming the statement by its paper alias reuses the
        keys its prove built: one cache entry, one hit."""
        with running_service(sock_path) as live, \
                ServiceClient(sock_path) as svc:
            envelope = svc.prove("sha", seed=5)
            assert svc.verify(envelope, circuit_id="sha256")
            assert [job.circuit_id for job in live.service.jobs.values()
                    if job.kind == "verify"] == ["sha"]
            pk_cache = svc.stats()["pk_cache"]
            assert pk_cache["entries"] == 1 and pk_cache["hits"] == 1

    def test_verify_unknown_circuit_refused_at_submit(self, sock_path):
        """An unknown verify circuit id is a 400 before anything is
        queued, as it is for a prove."""
        with running_service(sock_path) as live:
            with ServiceClient(sock_path) as svc:
                envelope = svc.prove("litmus", seed=5)
            enqueued = live.service.stats()["queue"]["enqueued"]
            raw = raw_socket(sock_path)
            raw.sendall(protocol.pack_frame({
                "op": "submit", "kind": "verify", "circuit_id": "nonsense",
                "envelope": envelope}))
            response = protocol.read_frame_sync(raw)
            raw.close()
            assert response["ok"] is False
            assert response["code"] == protocol.E_BAD_REQUEST
            assert response["error"] == "ConfigError"
            assert live.service.stats()["queue"]["enqueued"] == enqueued

    def test_cached_submit_skips_queue(self, sock_path):
        """A submit whose proof is already cached is answered at
        admission time: the job is born done and flagged cached."""
        with running_service(sock_path) as live:
            with ServiceClient(sock_path) as svc:
                svc.prove("litmus", seed=5)
                enqueued_before = live.service.enqueued
                job_id = svc.submit("prove", circuit_id="litmus", seed=5)
                status = svc.status(job_id)
                assert status["state"] == "done" and status["cached"]
                assert live.service.enqueued == enqueued_before

    def test_one_id_from_submit_to_flight_log(self, sock_path, tmp_path):
        """A daemon job's id is its JobReport's: the spool's job records
        carry exactly the ids ``submit`` returned, and a cached repeat of
        the prove proves nothing and books nothing."""
        from repro.obs import FLIGHT
        from repro.obs.events import read_spool
        spool = str(tmp_path / "svc.jsonl")
        FLIGHT.spool_to(spool)
        try:
            with running_service(sock_path), ServiceClient(sock_path) as svc:
                prove_id = prove_job(svc, 9)
                reply = svc.result(prove_id, wait_s=60)
                verify_id = svc.submit(
                    "verify", envelope=protocol.decode_blob(reply["envelope"]))
                assert svc.result(verify_id, wait_s=60)["valid"] is True
                repeat_id = prove_job(svc, 9)
                assert svc.result(repeat_id, wait_s=60)["cached"] is True
        finally:
            FLIGHT.spool_to(None)
        jobs = [e["data"] for e in read_spool(spool)]
        assert [(j["op"], j["job_id"]) for j in jobs] == [
            ("prove", prove_id), ("verify", verify_id)]
        assert reply["report"]["job_id"] == prove_id
        assert not any("svc-" in i for i in (prove_id, verify_id, repeat_id))

    def test_concurrent_clients_mixed_load(self, sock_path):
        """Four closed-loop clients share nine statements: each is proved
        and verified, then every prove is replayed.  Every request is
        answered, nothing fails, and each replay is a cache hit with the
        bytes its first answer had.  Runs with a short thread switch
        interval: the loop and the job thread share the waiting set, and
        a lost update would leave the depth off zero."""
        statements = [(circuit, seed) for circuit in ("litmus", "sha", "aes")
                      for seed in (1, 2, 3)]
        first, valid, replayed, errors = {}, [], [], []

        def prove_then_verify(svc, circuit, seed):
            first[circuit, seed] = svc.prove(circuit, seed=seed)
            valid.append(svc.verify(first[circuit, seed]))

        def replay(svc, circuit, seed):
            reply = svc.result(svc.submit("prove", circuit_id=circuit,
                                          seed=seed), wait_s=60)
            assert reply["cached"]
            assert protocol.decode_blob(reply["envelope"]) == \
                first[circuit, seed]
            replayed.append((circuit, seed))

        def drain(step, work):
            try:
                with ServiceClient(sock_path) as svc:
                    while True:
                        step(svc, *work.pop())
            except IndexError:
                pass  # the shared list is drained
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_service(sock_path) as live:
                for step in (prove_then_verify, replay):
                    work = list(statements)
                    clients = [
                        threading.Thread(target=drain, args=(step, work))
                        for _ in range(4)]
                    for thread in clients:
                        thread.start()
                    for thread in clients:
                        thread.join(120)
                    assert not any(t.is_alive() for t in clients)
                    assert not errors, errors
                stats = live.service.stats()
        finally:
            sys.setswitchinterval(interval)
        assert len(first) == 9 and valid == [True] * 9
        assert sorted(replayed) == sorted(statements)
        assert stats["jobs_done"] == 27 and stats["jobs_failed"] == 0
        assert stats["proof_cache"]["hits"] >= 9
        queue = stats["queue"]
        assert queue["rejected_full"] == 0 and queue["depth"] == 0
        assert queue["enqueued"] == 18 and 1 <= queue["peak_depth"] <= 4

    def test_fault_surfaces_as_typed_error_not_hang(self, sock_path):
        """An injected mid-job fault (`REPRO_FAULTS`) becomes a typed
        job error on the client — never a hung `result` call."""
        from repro.fuzz import faults

        plan = faults.FaultPlan(kind="error", site="service_job",
                                token="svc-test")
        with running_service(sock_path) as live:
            with faults.injected(plan):
                with ServiceClient(sock_path) as svc:
                    job_id = svc.submit("prove", circuit_id="litmus",
                                        seed=23)
                    t0 = time.monotonic()
                    with pytest.raises(ServiceError) as ei:
                        svc.result(job_id, wait_s=60)
                    assert time.monotonic() - t0 < 30
                    assert "injected fault" in str(ei.value)
                    assert ei.value.code == protocol.E_INTERNAL
                    status = svc.status(job_id)
                    assert status["state"] == "failed"
                    assert status["error"] == "RuntimeError"
                    # The daemon survived: the next job runs clean (the
                    # one-shot plan has already fired).
                    assert svc.prove("litmus", seed=24)[:4] == b"NCPE"
            assert live.service._jobs_failed == 1

    def test_job_timeout_is_typed(self, sock_path):
        """A hopeless per-job deadline comes back as ProverTimeoutError
        (exit code 6 through the CLI), not a hang."""
        with running_service(sock_path) as live:
            with ServiceClient(sock_path) as svc:
                job_id = svc.submit("prove", circuit_id="sha", seed=77,
                                    timeout_s=1e-4)
                with pytest.raises(ProverTimeoutError):
                    svc.result(job_id, wait_s=60)
                assert svc.status(job_id)["error"] == "ProverTimeoutError"
            del live

    def test_bad_requests_are_typed(self, sock_path):
        with running_service(sock_path):
            with ServiceClient(sock_path) as svc:
                with pytest.raises(ServiceError) as ei:
                    svc.request({"op": "frobnicate"})
                assert ei.value.code == protocol.E_BAD_REQUEST
                with pytest.raises(ConfigError):
                    svc.submit("prove", circuit_id="no-such-workload")
                with pytest.raises(ConfigError):
                    svc.submit("prove", circuit_id="litmus",
                               preset="no-such-preset")
                with pytest.raises(ServiceError):
                    svc.submit("prove")  # missing circuit_id
                with pytest.raises(ServiceError):
                    svc.submit("verify")  # missing envelope
                with pytest.raises(ServiceError):
                    svc.submit("transmute", circuit_id="litmus")
                with pytest.raises(DeserializationError):
                    svc.verify(b"NCPEgarbage")  # parse error crosses wire

    @pytest.mark.parametrize("timeout_s", [float("nan"), "nan", -1.0, "soon",
                                           [1]])
    def test_bad_timeout_is_refused_at_submit(self, sock_path, timeout_s):
        """A NaN budget never expires, so it would silently lift the
        daemon's default deadline: NaN, negative and non-numeric budgets
        are a 400 before anything is queued."""
        with running_service(sock_path) as live:
            raw = raw_socket(sock_path)
            # json.dumps writes float("nan") as the bare NaN token, which
            # the daemon's json.loads accepts.
            raw.sendall(protocol.pack_frame({
                "op": "submit", "kind": "prove", "circuit_id": "litmus",
                "seed": 3, "timeout_s": timeout_s}))
            response = protocol.read_frame_sync(raw)
            raw.close()
            assert response["ok"] is False
            assert response["code"] == protocol.E_BAD_REQUEST
            assert live.service.stats()["queue"]["enqueued"] == 0
            assert live.service.jobs == {}

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_bad_seed_is_refused_at_submit(self, sock_path, seed):
        """The daemon takes the seeds a local ``prove`` takes, a JSON
        integer >= 0; anything else is a 400 before anything is queued,
        never coerced (1.5 and true were both proved as seed 1)."""
        with running_service(sock_path) as live, \
                ServiceClient(sock_path) as svc:
            with pytest.raises(ServiceError) as err:
                svc.request({"op": "submit", "kind": "prove",
                             "circuit_id": "litmus", "seed": seed})
            assert err.value.code == protocol.E_BAD_REQUEST
            assert live.service.stats()["queue"]["enqueued"] == 0

    def test_client_seed_is_an_index(self, sock_path):
        """``ServiceClient.submit`` passes an integer-like seed (a numpy
        integer) and refuses a float as a local ``prove`` does."""
        import numpy as np
        with running_service(sock_path), ServiceClient(sock_path) as svc:
            with pytest.raises(TypeError):
                svc.submit("prove", circuit_id="litmus", seed=1.5)
            job_id = prove_job(svc, np.int64(3))
            assert svc.result(job_id, wait_s=60)["state"] == "done"

    def test_malformed_frames_answered_then_dropped(self, sock_path):
        with running_service(sock_path):
            # Oversized header: typed 413, then the server hangs up.
            raw = raw_socket(sock_path)
            raw.sendall(struct.pack(">II", protocol.MAX_FRAME_BYTES + 1, 0))
            response = protocol.read_frame_sync(raw)
            assert response["ok"] is False
            assert response["code"] == protocol.E_TOO_LARGE
            assert protocol.read_frame_sync(raw) is None  # connection gone
            raw.close()

            # Non-JSON payload: typed 400, connection also dropped.
            raw = raw_socket(sock_path)
            body = b"\xffnot json\xff"
            raw.sendall(struct.pack(">II", len(body), 0) + body)
            response = protocol.read_frame_sync(raw)
            assert response["ok"] is False
            assert response["code"] == protocol.E_BAD_REQUEST
            assert protocol.read_frame_sync(raw) is None
            raw.close()

            # The daemon shrugged it all off: a clean client still works.
            with ServiceClient(sock_path) as svc:
                assert svc.ping()["ok"]

    def test_stalled_frame_body_is_dropped(self, sock_path, monkeypatch):
        """A peer that sends a length prefix and then stalls mid-body is
        answered the typed FrameError and dropped once the body deadline
        passes; it pins nothing, and idle clean clients are unaffected."""
        monkeypatch.setattr(protocol, "FRAME_READ_TIMEOUT_S", 0.2)
        with running_service(sock_path), ServiceClient(sock_path) as idle:
            raw = raw_socket(sock_path)
            t0 = time.monotonic()
            raw.sendall(struct.pack(">II", 1000, 0) + b"x" * 10)
            response = protocol.read_frame_sync(raw)
            assert response["ok"] is False
            assert response["error"] == "FrameError"
            assert "stalled" in response["message"]
            assert protocol.read_frame_sync(raw) is None  # connection gone
            assert 0.2 <= time.monotonic() - t0 < 5
            raw.close()
            # Only a frame's body is on the clock: a connection idle
            # between frames for longer than the deadline still answers.
            assert idle.ping()["ok"]

    @pytest.mark.parametrize("frame", [
        struct.pack(">II", 0, protocol.MAX_FRAME_BYTES + 1),
        # A protocol-1 frame: its JSON's first bytes land in `blob_len`.
        struct.pack(">I", 14) + b'{"op": "ping"}',
    ], ids=["blob_len", "v1_frame"])
    def test_oversized_frame_is_a_typed_413(self, sock_path, frame):
        """A header announcing more than the cap is answered 413 on the
        header alone (no body follows), then the connection is dropped.
        An oversized ``json_len`` is
        ``test_malformed_frames_answered_then_dropped``'s first case."""
        with running_service(sock_path):
            raw = raw_socket(sock_path)
            raw.sendall(frame)
            response = protocol.read_frame_sync(raw)
            assert response["ok"] is False
            assert response["code"] == protocol.E_TOO_LARGE
            assert response["error"] == "FrameError"
            assert protocol.read_frame_sync(raw) is None  # connection gone
            raw.close()

    def test_truncated_blob_is_dropped(self, sock_path):
        with running_service(sock_path):
            raw = raw_socket(sock_path)
            head = b'{"op": "ping"}'
            raw.sendall(struct.pack(">II", len(head), 100) + head + b"x" * 10)
            raw.shutdown(socket.SHUT_WR)
            response = protocol.read_frame_sync(raw)
            assert response["error"] == "FrameError"
            assert "closed mid-frame" in response["message"]
            assert protocol.read_frame_sync(raw) is None
            raw.close()

    def test_envelopes_travel_as_bytes(self, sock_path, monkeypatch):
        """With every base64 routine made to raise, a prove and a verify
        through the daemon still succeed, and the service envelope is the
        bytes a local ``prove`` with the same seed returns."""
        import base64

        from repro import prove, setup
        from repro.snark import preset_by_name
        from repro.workloads.registry import build_workload

        _, circuit = build_workload("litmus")
        r1cs, public, witness = circuit.compile()
        pk, _ = setup(r1cs, preset_by_name("test-fast"))
        local = prove(pk, public, witness, seed=7,
                      circuit_id="litmus").to_bytes()

        def no_base64(*args, **kwargs):
            raise AssertionError("base64 on the envelope path")

        with running_service(sock_path) as live, \
                ServiceClient(sock_path) as svc:
            with monkeypatch.context() as patch:
                for owner, name in ((protocol, "encode_blob"),
                                    (protocol, "decode_blob"),
                                    (base64, "b64encode"),
                                    (base64, "b64decode")):
                    patch.setattr(owner, name, no_base64)
                envelope = svc.prove("litmus", seed=7)
                assert envelope == local
                assert svc.verify(envelope) is True
            # The JSON-shaped `result()` still carries base64 text.
            reply = svc.result(prove_job(svc, 7), wait_s=60)
            assert reply["cached"] is True
            assert isinstance(reply["envelope"], str)
            assert protocol.decode_blob(reply["envelope"]) == local

            # A base64 envelope is not a second input path: 400, unqueued.
            enqueued = live.service.stats()["queue"]["enqueued"]
            with pytest.raises(ServiceError) as err:
                svc.request({"op": "submit", "kind": "verify",
                             "envelope": reply["envelope"]})
            assert err.value.code == protocol.E_BAD_REQUEST
            assert live.service.stats()["queue"]["enqueued"] == enqueued

    def test_envelope_in_json_and_blob_is_refused(self, sock_path):
        with running_service(sock_path) as live:
            raw = raw_socket(sock_path)
            head = b'{"envelope": "TkNQRQ==", "kind": "verify", "op": "submit"}'
            raw.sendall(struct.pack(">II", len(head), 4) + head + b"NCPE")
            response = protocol.read_frame_sync(raw)
            raw.close()
            assert response["code"] == protocol.E_BAD_REQUEST
            assert response["error"] == "FrameError"
            assert live.service.stats()["queue"]["enqueued"] == 0

    def test_shutdown_fails_queued_jobs_typed(self, sock_path):
        """In-band shutdown: queued-but-unstarted jobs fail with the
        503-style typed error instead of leaving clients polling, the
        running job finishes, and open connections are answered while
        the daemon drains."""
        with running_service(sock_path, queue_depth=8) as live:
            with plugged(live.service) as release, \
                    ServiceClient(sock_path) as svc, \
                    ServiceClient(sock_path) as watcher:
                running = prove_job(svc, 1)
                wait_running(svc, running)
                queued = prove_job(svc, 2)
                svc.shutdown_server()
                with pytest.raises(ServiceError) as ei:
                    watcher.result(queued, wait_s=30)
                assert ei.value.code == protocol.E_SHUTTING_DOWN
                assert watcher.status(running)["state"] == "running"
                with pytest.raises(ServiceError) as ei:
                    prove_job(watcher, 3)
                assert ei.value.code == protocol.E_SHUTTING_DOWN
                release.set()
            live.stop()
            job = live.service.jobs[queued]
            assert job.state == "failed"
            assert isinstance(job.error, ServiceError)
            assert job.error.code == protocol.E_SHUTTING_DOWN
            # The running job was allowed to finish, not dropped.
            assert live.service.jobs[running].state == "done"

    def test_unix_socket_unlinked_on_stop(self, sock_path):
        import os

        with running_service(sock_path):
            assert os.path.exists(sock_path)
        assert not os.path.exists(sock_path)


# ---------------------------------------------------------------------------
# Frame codec and client connection
# ---------------------------------------------------------------------------

def _read_fed(data: bytes):
    """`read_frame_sync` on a socket fed ``data`` and then closed."""
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(10)
        sender = threading.Thread(target=lambda: (a.sendall(data),
                                                  a.shutdown(socket.SHUT_WR)))
        sender.start()
        try:
            return protocol.read_frame_sync(b)
        finally:
            sender.join()


class TestFrameCodec:
    @pytest.mark.parametrize("envelope", [b"NCPE\x00\xff" * 1000, None,
                                          "text stays JSON"])
    def test_roundtrip(self, envelope):
        payload = {"op": "result", "state": "done", "envelope": envelope}
        assert _read_fed(protocol.pack_frame(payload)) == payload

    def test_oversize_code_is_typed_not_worded(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(protocol.FrameError) as err:
            protocol.pack_frame({"envelope": bytes(63)})
        assert err.value.code == protocol.E_TOO_LARGE
        assert protocol.error_from_exception(err.value)["code"] == 413
        # The message no longer decides the code.
        reworded = protocol.FrameError("frame exceeds cap")
        assert protocol.error_from_exception(reworded)["code"] == 400

    @given(header=st.one_of(
               st.binary(min_size=8, max_size=8),
               st.tuples(st.integers(0, 300), st.integers(0, 300)).map(
                   lambda lens: struct.pack(">II", *lens))),
           body=st.one_of(st.binary(max_size=300),
                          st.dictionaries(st.text(max_size=8),
                                          st.integers(), max_size=4).map(
                              lambda d: json.dumps(d).encode())))
    @example(header=struct.pack(">II", 100_000, 0), body=b"[" * 100_000)
    def test_arbitrary_bytes_parse_or_raise_frame_error(self, header, body):
        """Whatever arrives, the reader returns a dict or None, or raises
        the typed FrameError — nothing else."""
        try:
            frame = _read_fed(header + body)
        except protocol.FrameError:
            return
        assert frame is None or isinstance(frame, dict)

    @pytest.mark.parametrize("failure", ["timeout", "malformed"])
    def test_failed_request_never_returns_a_stale_reply(self, tmp_path,
                                                        failure):
        """A request that fails between send and a whole reply closes the
        client: its reply may still arrive, and the next request must not
        read it as its own."""
        path = str(tmp_path / "fake.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)
        late = protocol.pack_frame(protocol.ok_response(job_id="FIRST"))

        def fake_daemon():
            conn, _ = listener.accept()
            # The client hangs up after its failed request: sends may fail.
            with conn, contextlib.suppress(protocol.FrameError, OSError):
                protocol.read_frame_sync(conn)
                if failure == "timeout":
                    time.sleep(0.5)  # past the client's socket timeout
                    conn.sendall(late)
                else:  # a reply that is not a frame, then a valid one
                    conn.sendall(struct.pack(">II", 3, 0) + b"???" + late)
                if protocol.read_frame_sync(conn) is not None:
                    conn.sendall(protocol.pack_frame(
                        protocol.ok_response(job_id="SECOND")))

        daemon = threading.Thread(target=fake_daemon)
        daemon.start()
        try:
            svc = ServiceClient(path)
            svc._sock.settimeout(0.2)
            with pytest.raises((TimeoutError, protocol.FrameError)):
                svc.submit("prove", circuit_id="litmus")
            time.sleep(0.6)  # the late reply has landed
            with pytest.raises(ServiceError) as err:
                svc.submit("prove", circuit_id="litmus")
            assert "connection lost" in str(err.value)
            svc.close()
        finally:
            daemon.join(10)
            listener.close()
        assert not daemon.is_alive()


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

class TestServiceConfig:
    def test_job_slots_must_be_positive(self):
        """There is no job-slot count left to validate: zero, one and
        two are all refused, by the config and by ``repro serve``."""
        from repro.cli import build_parser

        for slots in (0, 1, 2):
            with pytest.raises(TypeError):
                ServiceConfig(job_slots=slots)
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["serve", "--job-slots", str(slots)])
            assert exc.value.code == 2

    def test_job_slots_is_the_only_concurrency_knob(self, sock_path):
        """No concurrency knob is left: neither a slot count nor a worker
        pool configures the daemon, which proves on exactly one job thread
        and reports no slot count in its config."""
        with pytest.raises(TypeError):
            ServiceConfig(job_slots=2, workers=4)
        with running_service(sock_path) as live, \
                ServiceClient(sock_path) as svc:
            assert [t for t in threading.enumerate()
                    if t.name == "repro-job"] == [live.thread]
            config = svc.stats()["config"]
            assert "job_slots" not in config and "workers" not in config

    def test_queue_depth_must_be_positive(self):
        with pytest.raises(ConfigError, match="queue_depth"):
            ServiceConfig(queue_depth=0)

    @pytest.mark.parametrize("flag, field", [
        ("--proof-cache-mb", "proof_cache_bytes"),
    ])
    def test_negative_cache_budget_is_a_config_error(self, flag, field):
        """A negative budget is refused like ``--queue-depth 0``: exit 3,
        no traceback."""
        from repro.cli import EXIT_CONFIG_ERROR, main

        with pytest.raises(ConfigError, match=field):
            ServiceConfig(**{field: -1})
        assert main(["serve", flag, "-1"]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("timeout_s", [float("nan"), -1.0])
    def test_default_timeout_must_be_a_budget(self, timeout_s):
        """``repro serve --timeout nan`` would otherwise turn every
        submit that relies on the default into a 400."""
        with pytest.raises(ConfigError, match="timeout_s"):
            ServiceConfig(timeout_s=timeout_s)

    def test_retired_knobs_are_gone(self, sock_path):
        """Seven fields: the per-client cap, the retention count, the
        job-slot count, a worker pool, the key-cache budget, the client
        id and job priorities are not accepted anywhere."""
        import dataclasses

        from repro.cli import main

        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "host", "port", "unix_socket", "queue_depth", "preset",
            "proof_cache_bytes", "timeout_s"]
        for retired in ("max_per_client", "max_results", "job_slots",
                        "workers", "key_cache_bytes"):
            with pytest.raises(TypeError):
                ServiceConfig(**{retired: 2})
        for argv in (["serve", "--job-slots", "2"],
                     ["serve", "--key-cache-mb", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        with pytest.raises(TypeError):
            ServiceClient(sock_path, client_id="hog")
        with running_service(sock_path), ServiceClient(sock_path) as svc:
            with pytest.raises(TypeError):
                svc.prove("litmus", priority=1)
            assert "max_per_client" not in svc.stats()["queue"]


# ---------------------------------------------------------------------------
# CLI surface for serve/client
# ---------------------------------------------------------------------------

class TestServeClientParsers:
    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port == 7464 and args.host == "127.0.0.1"
        assert args.queue_depth == server.DEFAULT_MAX_DEPTH == 16
        assert args.preset == "test-fast"

    @pytest.mark.parametrize("argv", [
        ["serve", "--max-per-client", "4"],
        ["client", "prove", "litmus", "--priority", "1"],
    ])
    def test_retired_queue_flags_are_usage_errors(self, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_client_shares_connect_vocabulary(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["client", "prove", "sha", "--unix-socket", "/tmp/x.sock",
             "--seed", "9", "--preset", "test-fast"])
        assert args.unix_socket == "/tmp/x.sock"
        assert args.action == "prove" and args.workload == "sha"
        assert args.seed == 9 and args.preset == "test-fast"

    def test_client_prove_defers_to_daemon_preset(self, sock_path, tmp_path):
        """``client prove`` without ``--preset`` sends none, so the
        daemon's ``--preset`` applies; an explicit one overrides it."""
        from repro import ProofBundle
        from repro.cli import build_parser, main

        args = build_parser().parse_args(["client", "prove", "litmus"])
        assert args.preset is None
        out = tmp_path / "proof.bin"
        argv = ["client", "prove", "litmus", "--unix-socket", sock_path,
                "--out", str(out)]
        with running_service(sock_path, preset="paper-128bit"):
            for extra, preset in (([], "paper-128bit"),
                                  (["--preset", "test-fast"], "test-fast")):
                assert main(argv + extra) == 0
                bundle = ProofBundle.from_bytes(out.read_bytes())
                assert bundle.preset_name == preset

    def test_every_client_action_through_main(self, sock_path, tmp_path,
                                              capsys):
        """All five ``repro client`` actions dispatch through ``main()``
        against a live daemon; ``shutdown`` leaves it draining."""
        import json

        from repro.cli import main

        out = tmp_path / "proof.bin"
        connect = ["--unix-socket", sock_path]
        with running_service(sock_path) as live:
            assert main(["client", "prove", "litmus", "--seed", "3",
                         "--out", str(out)] + connect) == 0
            assert main(["client", "verify", str(out)] + connect) == 0
            assert "proof valid" in capsys.readouterr().out
            job_id, = [job.job_id for job in live.service.jobs.values()
                       if job.kind == "prove"]
            assert main(["client", "status", job_id] + connect) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["job_id"] == job_id and status["state"] == "done"
            assert main(["client", "stats"] + connect) == 0
            assert json.loads(capsys.readouterr().out)["jobs_done"] == 2
            assert main(["client", "shutdown"] + connect) == 0
            assert "server draining" in capsys.readouterr().out
            live.thread.join(30)
            assert live.service._stopping and not live.thread.is_alive()

    def test_exit_code_table_documented(self):
        from repro.cli import EXIT_CODE_TABLE, build_parser

        for code in ("0", "3", "4", "5", "6"):
            assert code in EXIT_CODE_TABLE
        help_text = build_parser().format_help()
        assert "exit codes" in help_text.lower()
