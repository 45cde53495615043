"""End-to-end tests for the proving service (daemon, queue, caches,
client) over a real unix socket.

The daemon runs in-process on a background thread's event loop — real
frames, real sockets, real executor threads — so these tests exercise
the exact dispatch path ``repro serve`` uses while keeping direct access
to the :class:`~repro.service.server.ProvingService` internals (to plug
the executor for deterministic backpressure, and to arm ``REPRO_FAULTS``
plans the worker thread will see).
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    ConfigError,
    DeserializationError,
    ProverTimeoutError,
)
from repro.obs import METRICS
from repro.service import (
    BoundedJobQueue,
    ProvingService,
    QueueFullError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    proof_cache_key,
    protocol,
)
from repro.service.cache import LRUBytesCache


# ---------------------------------------------------------------------------
# Harness: run a ProvingService on a background event-loop thread
# ---------------------------------------------------------------------------

class _LiveService:
    """A started service plus the loop thread driving it."""

    def __init__(self, service, loop, thread):
        self.service = service
        self.loop = loop
        self.thread = thread

    @property
    def address(self):
        return self.service.address

    def stop(self, timeout=30.0):
        if not self.service._stopping:
            asyncio.run_coroutine_threadsafe(
                self.service.stop(), self.loop).result(timeout)
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "service loop thread leaked"


@contextlib.contextmanager
def running_service(sock_path, **overrides):
    overrides.setdefault("unix_socket", str(sock_path))
    overrides.setdefault("preset", "test-fast")
    config = ServiceConfig(**overrides)
    service = ProvingService(config)
    started = threading.Event()

    async def _main():
        await service.start()
        started.set()
        await service._stopped.wait()

    loop = asyncio.new_event_loop()

    def _run():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="svc-loop", daemon=True)
    thread.start()
    assert started.wait(15), "service failed to start"
    live = _LiveService(service, loop, thread)
    try:
        yield live
    finally:
        live.stop()


@pytest.fixture
def sock_path(tmp_path):
    return str(tmp_path / "repro.sock")


# ---------------------------------------------------------------------------
# Queue unit tests (bounds, priority, fairness)
# ---------------------------------------------------------------------------

class TestBoundedJobQueue:
    def _drain(self, q, n):
        async def pop():
            return [await q.get() for _ in range(n)]
        return asyncio.run(pop())

    def test_depth_bound_rejects(self):
        q = BoundedJobQueue(max_depth=2, max_per_client=8)
        q.put("a", client="c1")
        q.put("b", client="c2")
        with pytest.raises(QueueFullError, match="queue full"):
            q.put("c", client="c3")
        assert q.rejected_full == 1 and len(q) == 2

    def test_per_client_cap_rejects(self):
        q = BoundedJobQueue(max_depth=16, max_per_client=2)
        q.put("a", client="greedy")
        q.put("b", client="greedy")
        with pytest.raises(QueueFullError, match="cap 2"):
            q.put("c", client="greedy")
        q.put("d", client="polite")  # other clients unaffected
        assert q.rejected_client == 1

    def test_priority_order(self):
        q = BoundedJobQueue()
        q.put("normal", priority=0, client="a")
        q.put("urgent", priority=-1, client="b")
        q.put("batch", priority=5, client="c")
        assert self._drain(q, 3) == ["urgent", "normal", "batch"]

    def test_fair_interleave_across_clients(self):
        """A 3-job burst from one client must not park another client's
        single job behind the whole burst."""
        q = BoundedJobQueue()
        q.put("h1", client="hog")
        q.put("h2", client="hog")
        q.put("h3", client="hog")
        q.put("solo", client="other")
        order = self._drain(q, 4)
        assert order.index("solo") < order.index("h2")

    def test_caps_released_after_get(self):
        q = BoundedJobQueue(max_depth=16, max_per_client=1)
        q.put("a", client="c")
        assert self._drain(q, 1) == ["a"]
        q.put("b", client="c")  # cap counts queued, not lifetime


# ---------------------------------------------------------------------------
# Cache unit tests
# ---------------------------------------------------------------------------

class TestLRUBytesCache:
    def test_evicts_lru_by_bytes(self):
        c = LRUBytesCache(max_bytes=100)
        c.put("a", "A", 40)
        c.put("b", "B", 40)
        assert c.get("a") == "A"       # refresh a
        c.put("c", "C", 40)            # evicts b (LRU)
        assert c.get("b") is None
        assert c.get("a") == "A" and c.get("c") == "C"
        assert c.evictions == 1

    def test_oversized_value_skipped(self):
        c = LRUBytesCache(max_bytes=10)
        c.put("big", "x", 1000)
        assert c.get("big") is None

    def test_peek_counts_nothing(self):
        c = LRUBytesCache(max_bytes=100)
        c.put("k", "v", 1)
        hits, misses = c.hits, c.misses
        assert c.peek("k") == "v" and c.peek("nope") is None
        assert (c.hits, c.misses) == (hits, misses)

    def test_proof_cache_key_separates_inputs(self):
        import numpy as np

        pub = np.arange(4, dtype=np.uint64)
        base = proof_cache_key("test-fast", "sha", pub, 1)
        assert base == proof_cache_key("test-fast", "sha", pub, 1)
        assert base != proof_cache_key("test-fast", "sha", pub, 2)
        assert base != proof_cache_key("test-fast", "sha", pub, None)
        assert base != proof_cache_key("test-fast", "aes", pub, 1)
        assert base != proof_cache_key("paper-128bit", "sha", pub, 1)

    def test_proof_cache_key_follows_envelope_version(self, monkeypatch):
        """Envelopes of two formats never alias: the key prefix is derived
        from the envelope's VERSION, not spelled beside it."""
        import numpy as np

        from repro.service import cache
        from repro.snark import envelope

        assert cache.ENVELOPE_VERSION == envelope.VERSION
        pub = np.arange(4, dtype=np.uint64)
        current = proof_cache_key("test-fast", "sha", pub, 1)
        monkeypatch.setattr(cache, "ENVELOPE_VERSION", envelope.VERSION + 1)
        assert proof_cache_key("test-fast", "sha", pub, 1) != current


# ---------------------------------------------------------------------------
# End-to-end over the unix socket
# ---------------------------------------------------------------------------

class TestServiceEndToEnd:
    def test_mixed_jobs_roundtrip(self, sock_path):
        """Mixed prove/verify jobs through the live daemon; the proved
        envelope verifies both through the service and locally.  The
        daemon answers from its own attributes (``stats``): the kernel
        counter registry of its process stays off and empty."""
        METRICS.enabled = False
        METRICS.reset()
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
            assert not METRICS.enabled
            assert METRICS.snapshot() == {"counters": {}, "gauges": {}}

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
                # One job slot: the second job waited out the first.
                queued = svc.result(queued_id, wait_s=60)
                assert queued["wait_s"] > 0
                assert queued["wait_s"] >= status["run_s"] * 0.5
                with pytest.raises(ServiceError) as ei:
                    svc.status("svc-999999")
                assert ei.value.code == protocol.E_NOT_FOUND
            del live

    def test_backpressure_and_fairness_caps(self, sock_path):
        """With the lone executor slot plugged, submissions past the
        bounds are rejected with the typed 429 — distinct messages for
        queue-full vs per-client — and drain once the slot frees."""
        with running_service(sock_path, queue_depth=4,
                             max_per_client=2) as live:
            release = threading.Event()
            service = live.service
            real_run_job = service._run_job

            def plugged_run_job(job, loop):
                release.wait(30)
                real_run_job(job, loop)

            service._run_job = plugged_run_job
            try:
                with ServiceClient(sock_path, client_id="hog") as hog, \
                        ServiceClient(sock_path, client_id="bee") as bee, \
                        ServiceClient(sock_path, client_id="cat") as cat:
                    first = hog.submit("prove", circuit_id="litmus", seed=1)
                    # Wait for the dispatcher to pop it into the plugged
                    # executor so queue occupancy is deterministic.
                    deadline = time.monotonic() + 10
                    while hog.status(first)["state"] != "running":
                        assert time.monotonic() < deadline
                        time.sleep(0.01)

                    hog.submit("prove", circuit_id="litmus", seed=2)
                    hog.submit("prove", circuit_id="litmus", seed=3)
                    # hog now has 2 queued = its fairness cap (depth 2/4).
                    with pytest.raises(QueueFullError, match="cap 2"):
                        hog.submit("prove", circuit_id="litmus", seed=4)
                    # bee fills the remaining global depth.
                    bee.submit("prove", circuit_id="litmus", seed=5)
                    bee.submit("prove", circuit_id="litmus", seed=6)
                    # cat is under its own cap, but the queue (depth 4)
                    # is full: global backpressure.
                    with pytest.raises(QueueFullError, match="queue full"):
                        cat.submit("prove", circuit_id="litmus", seed=7)

                    qstats = cat.stats()["queue"]
                    assert qstats["rejected_client"] == 1
                    assert qstats["rejected_full"] == 1
                    assert qstats["depth"] == 4

                    release.set()
                    done = hog.result(first, wait_s=60)
                    assert done["state"] == "done"
            finally:
                release.set()

    def test_proof_cache_hits_byte_identical(self, sock_path):
        with running_service(sock_path) as live:
            with ServiceClient(sock_path) as svc:
                first = svc.prove("litmus", seed=11)
                again = svc.prove("litmus", seed=11)
                assert again == first  # byte-identical envelope

                # Unseeded repeats dedup to the first proof's bytes too
                # (seed-absence is part of the content address).
                free_a = svc.prove("litmus")
                free_b = svc.prove("litmus")
                assert free_a == free_b
                assert free_a != first

                stats = svc.stats()
                assert stats["proof_cache"]["hits"] >= 2
                assert stats["pk_cache"]["entries"] == 1  # keys built once
            del live

    def test_cached_submit_skips_queue(self, sock_path):
        """A submit whose proof is already cached is answered at
        admission time: the job is born done and flagged cached."""
        with running_service(sock_path) as live:
            with ServiceClient(sock_path) as svc:
                svc.prove("litmus", seed=5)
                enqueued_before = live.service.queue.enqueued
                job_id = svc.submit("prove", circuit_id="litmus", seed=5)
                status = svc.status(job_id)
                assert status["state"] == "done" and status["cached"]
                assert live.service.queue.enqueued == enqueued_before

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

    def test_malformed_frames_answered_then_dropped(self, sock_path):
        with running_service(sock_path):
            # Oversized length prefix: typed 413, then the server hangs up.
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(10)
            raw.connect(sock_path)
            raw.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            response = protocol.read_frame_sync(raw)
            assert response["ok"] is False
            assert response["code"] == protocol.E_TOO_LARGE
            assert protocol.read_frame_sync(raw) is None  # connection gone
            raw.close()

            # Non-JSON payload: typed 400, connection also dropped.
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(10)
            raw.connect(sock_path)
            body = b"\xffnot json\xff"
            raw.sendall(struct.pack(">I", len(body)) + body)
            response = protocol.read_frame_sync(raw)
            assert response["ok"] is False
            assert response["code"] == protocol.E_BAD_REQUEST
            assert protocol.read_frame_sync(raw) is None
            raw.close()

            # The daemon shrugged it all off: a clean client still works.
            with ServiceClient(sock_path) as svc:
                assert svc.ping()["ok"]

    def test_shutdown_fails_queued_jobs_typed(self, sock_path):
        """In-band shutdown: queued-but-unstarted jobs fail with the
        503-style typed error instead of leaving clients polling."""
        with running_service(sock_path, queue_depth=8) as live:
            release = threading.Event()
            service = live.service
            real_run_job = service._run_job

            def plugged_run_job(job, loop):
                release.wait(30)
                real_run_job(job, loop)

            service._run_job = plugged_run_job
            try:
                with ServiceClient(sock_path) as svc:
                    running = svc.submit("prove", circuit_id="litmus",
                                         seed=1)
                    deadline = time.monotonic() + 10
                    while svc.status(running)["state"] != "running":
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    queued = svc.submit("prove", circuit_id="litmus",
                                        seed=2)
                    svc.shutdown_server()
                    release.set()
            finally:
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
# Config validation
# ---------------------------------------------------------------------------

class TestServiceConfig:
    def test_job_slots_must_be_positive(self):
        with pytest.raises(ConfigError):
            ServiceConfig(job_slots=0)

    def test_job_slots_is_the_only_concurrency_knob(self):
        """No field interacts with ``job_slots``: any positive count is a
        valid config, and there is no pool to configure beside it."""
        import dataclasses

        assert ServiceConfig(job_slots=2).job_slots == 2
        assert "workers" not in {f.name for f in
                                 dataclasses.fields(ServiceConfig)}
        with pytest.raises(TypeError):
            ServiceConfig(job_slots=2, workers=4)


# ---------------------------------------------------------------------------
# CLI surface for serve/client
# ---------------------------------------------------------------------------

class TestServeClientParsers:
    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port == 7464 and args.host == "127.0.0.1"
        assert args.queue_depth == 64 and args.max_per_client == 16
        assert args.job_slots == 1 and args.preset == "test-fast"

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

    def test_exit_code_table_documented(self):
        from repro.cli import EXIT_CODE_TABLE, build_parser

        for code in ("0", "3", "4", "5", "6"):
            assert code in EXIT_CODE_TABLE
        help_text = build_parser().format_help()
        assert "exit codes" in help_text.lower()
