"""Tests for the parallel proving engine (:mod:`repro.parallel`).

The load-bearing property is the determinism contract: the batch prover
must produce bytes **identical** to the in-process path at any worker
count.  Worker counts are kept small (2) so the suite stays fast on small
CI machines; the contract is count-independent by construction (pure
jobs, submission-order assembly).
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.hashing import fieldhash
from repro.parallel import ProverPool, get_pool, shm, shutdown, usable_cpus
from repro.snark import TEST, prove, prove_many, setup, verify
from repro.workloads import synthetic_r1cs


@pytest.fixture(scope="module")
def instance():
    return synthetic_r1cs(log_size=10, seed=9)


@pytest.fixture(scope="module")
def pool():
    with ProverPool(workers=2) as p:
        yield p


def _repro_segments():
    """Names of live repro-owned segments in /dev/shm (Linux)."""
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith("repro"))
    except FileNotFoundError:  # non-Linux: rely on arena bookkeeping
        return []


class TestSerialFallback:
    def test_serial_pool_never_spawns(self):
        pool = ProverPool(workers=1)
        assert pool.is_serial
        assert pool.run(lambda a, b: a + b, [(1, 2), (3, 4)]) == [3, 7]
        assert pool._executor is None

    def test_workers_default_is_cpu_count(self):
        assert ProverPool().workers == usable_cpus()

    def test_cpu_counting_respects_affinity(self, instance, monkeypatch):
        """Pinned to 1 CPU of many, the default is one prover, not one per
        installed core, and ``prove_many`` stays on the caller."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 1
        assert ProverPool().workers == 1
        assert get_pool() is None
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        shutdown()
        bundles = prove_many(pk, [(public, witness)] * 2, workers=8,
                             base_seed=1, attach_report=True)
        assert bundles[0].report.dispatch == "serial"
        from repro.parallel import pool as pool_mod

        assert pool_mod._GLOBAL_POOL is None


class TestProofDeterminism:
    def test_pooled_prove_bytes_identical(self, instance):
        """A single proof is one job: with the process-wide pool up,
        ``prove(workers=2)`` still runs on the caller — no worker process
        is started, no segment created — and gives the serial bytes."""
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        serial = prove(pk, public, witness, seed=21)
        before = _repro_segments()
        try:
            warm = get_pool(2)
            pooled = prove(pk, public, witness, seed=21, workers=2)
            assert warm._executor is None and warm._arena is None
            assert _repro_segments() == before
        finally:
            shutdown()
        assert pooled.to_bytes() == serial.to_bytes()
        assert verify(vk, pooled)

    def test_prove_many_worker_count_invariant(self, instance, pool):
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        jobs = [(public, witness)] * 3
        ser = prove_many(pk, jobs, workers=1, base_seed=33, circuit_id="syn")
        par = prove_many(pk, jobs, pool=pool, base_seed=33, circuit_id="syn")
        assert [b.to_bytes() for b in ser] == [b.to_bytes() for b in par]
        assert all(verify(vk, b) for b in par)
        assert all(b.circuit_id == "syn" for b in par)

    def test_prove_many_jobs_get_distinct_masks(self, instance):
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        a, b = prove_many(pk, [(public, witness)] * 2, workers=1, base_seed=1)
        assert a.proof.witness_commitment.root != b.proof.witness_commitment.root

    def test_prove_many_empty(self, instance):
        r1cs, _, _ = instance
        pk, _ = setup(r1cs, TEST)
        assert prove_many(pk, [], workers=2) == []


class TestWorkerTraceMerge:
    def test_worker_spans_and_counters_merge(self, instance, pool):
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        with obs.tracing() as tracer:
            prove_many(pk, [(public, witness)] * 2, pool=pool, base_seed=2)
        workers = tracer.worker_records()
        assert workers, "pooled prove_many produced no worker records"
        for records in workers.values():
            assert any(rec.name == "snark.prove" for rec in records)
            assert all(rec.wall_s >= 0 for rec in records)
        # NTT butterflies run inside the workers; their counter deltas
        # must land in the parent registry.
        counters = tracer.metrics_snapshot.get("counters", {})
        assert counters.get("ntt.butterflies", 0) > 0

    def test_workers_render_as_extra_pids(self, instance, pool):
        from repro.obs.export import WORKER_PID_BASE, chrome_trace

        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        with obs.tracing() as tracer:
            prove_many(pk, [(public, witness)] * 2, pool=pool, base_seed=2)
        doc = chrome_trace(tracer.records(),
                           worker_records=tracer.worker_records())
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert any(p >= WORKER_PID_BASE for p in pids)

    def test_untraced_pooled_run_merges_nothing(self, instance, pool):
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        bundles = prove_many(pk, [(public, witness)] * 2, pool=pool,
                             base_seed=2)
        # no tracer active: plain results only
        assert all(verify(vk, b) for b in bundles)


class TestShmRoundTrip:
    """Property tests for the shared-memory substrate itself."""

    def test_share_array_round_trip(self):
        rng = np.random.default_rng(11)
        with shm.ShmArena() as arena:
            for shape, dtype in [((7,), "uint64"), ((3, 5), "uint64"),
                                 ((2, 3, 4), "uint8"), ((1,), "int64")]:
                arr = rng.integers(0, 100, size=shape).astype(dtype)
                desc = arena.share_array(arr)
                assert desc.shape == tuple(shape)
                assert desc.dtype == str(np.dtype(dtype))
                assert desc.nbytes == arr.nbytes
                with shm.attached(desc) as view:
                    assert view.shape == arr.shape
                    assert view.dtype == arr.dtype
                    assert np.array_equal(view, arr)

    def test_two_arenas_never_mint_the_same_name(self):
        with shm.ShmArena("repro_pool") as a, shm.ShmArena("repro_pool") as b:
            names = [arena.share_blob(b"x").name
                     for arena in (a, b, a, b)]
        assert len(set(names)) == 4

    def test_worker_writes_are_visible_to_parent(self):
        with shm.ShmArena() as arena:
            desc = arena.share_array(np.zeros((4, 4), dtype=np.uint64))
            with shm.attached(desc) as view:
                view[...] = np.arange(16, dtype=np.uint64).reshape(4, 4)
            with shm.attached(desc) as again:
                assert np.array_equal(
                    again, np.arange(16, dtype=np.uint64).reshape(4, 4))

    def test_blob_and_pickle_round_trip(self):
        payload = {"key": np.arange(5, dtype=np.uint64), "n": 42}
        with shm.ShmArena() as arena:
            bdesc = arena.share_blob(b"hello shm")
            assert shm.read_blob(bdesc) == b"hello shm"
            pdesc = arena.share_pickle(payload)
            loaded = shm.read_pickle(pdesc)
            assert loaded["n"] == 42
            assert np.array_equal(loaded["key"], payload["key"])

    def test_torn_down_segment_raises_shmerror(self):
        arena = shm.ShmArena()
        desc = arena.share_array(np.ones(8, dtype=np.uint64))
        arena.free(desc)
        with pytest.raises(shm.ShmError):
            with shm.attached(desc):
                pass
        arena.close()
        with pytest.raises(shm.ShmError):
            shm.read_blob(shm.BlobDesc(desc.name, 8))

    def test_close_unlinks_everything_and_is_idempotent(self):
        before = _repro_segments()
        arena = shm.ShmArena()
        descs = [arena.share_array(np.zeros(16, dtype=np.uint64))
                 for _ in range(3)]
        assert arena.bytes_in_use == 3 * 16 * 8
        arena.close()
        arena.close()
        assert arena.closed and arena.bytes_in_use == 0
        assert _repro_segments() == before
        for d in descs:
            with pytest.raises(shm.ShmError):
                with shm.attached(d):
                    pass

    def test_free_twice_is_noop(self):
        arena = shm.ShmArena()
        desc = arena.share_array(np.ones(8, dtype=np.uint64))
        arena.free(desc)
        arena.free(desc)  # second free must be a silent no-op
        assert arena.bytes_in_use == 0
        arena.close()

    def test_reentrant_close_releases_each_segment_once(self, monkeypatch):
        """Regression: a SIGTERM cleanup chain firing while close() is
        mid-loop must not skip segments or release one twice.  We model
        the reentry by having the first release call close() again."""
        before = _repro_segments()
        arena = shm.ShmArena()
        for _ in range(4):
            arena.share_array(np.zeros(8, dtype=np.uint64))
        released = []
        original = shm.ShmArena._release

        def reentrant(seg):
            released.append(seg.name)
            if len(released) == 1:  # the interrupting cleanup chain
                arena.close()
            original(seg)

        monkeypatch.setattr(shm.ShmArena, "_release",
                            staticmethod(reentrant))
        arena.close()
        assert arena.closed
        assert len(released) == 4
        assert len(set(released)) == 4, "a segment was released twice"
        assert _repro_segments() == before

    def test_pool_close_twice_and_shutdown_twice(self):
        with ProverPool(workers=2) as p:
            assert p.run(divmod, [(7, 2), (9, 4)]) == [(3, 1), (2, 1)]
            p.close()  # __exit__ will close again: must be idempotent
        p.close()
        assert get_pool(2) is not None
        shutdown()
        shutdown()  # second process-wide teardown is a no-op

    def test_exception_inside_context_still_cleans_up(self):
        before = _repro_segments()
        with pytest.raises(RuntimeError, match="boom"):
            with shm.ShmArena() as arena:
                arena.share_array(np.zeros(64, dtype=np.uint64))
                raise RuntimeError("boom")
        assert _repro_segments() == before

    def test_sigterm_unlinks_segments(self, tmp_path):
        """A SIGTERM'd prover process must leave /dev/shm clean."""
        import signal
        import subprocess
        import sys
        import time

        script = tmp_path / "victim.py"
        script.write_text(
            "import sys, time, numpy as np\n"
            "from repro.parallel import shm\n"
            "arena = shm.ShmArena(prefix='repro_sigterm')\n"
            "desc = arena.share_array(np.zeros(1024, dtype=np.uint64))\n"
            "print(desc.name, flush=True)\n"
            "time.sleep(30)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [os.path.join(os.getcwd(), "src"),
                                     os.environ.get("PYTHONPATH", "")])))
        proc = subprocess.Popen([sys.executable, str(script)],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            name = proc.stdout.readline().strip()
            assert name, "victim never created its segment"
            assert os.path.exists(f"/dev/shm/{name}")
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while os.path.exists(f"/dev/shm/{name}"):
                assert time.monotonic() < deadline, \
                    f"segment {name} leaked after SIGTERM"
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_no_leaks_after_pooled_prove(self, instance):
        before = _repro_segments()
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        with ProverPool(workers=2) as p:
            bundles = prove_many(pk, [(public, witness)] * 2, pool=p,
                                 base_seed=4)
        assert all(verify(vk, b) for b in bundles)
        assert _repro_segments() == before


class TestWorkerCountInvariance:
    """Proof bytes must be identical at workers in {0, 1, 2, 4}."""

    def test_prove_bytes_identical_across_worker_counts(self, instance):
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        reference = prove(pk, public, witness, seed=77).to_bytes()
        for w in (0, 1, 2, 4):
            assert prove(pk, public, witness, seed=77,
                         workers=w).to_bytes() == reference
        assert verify(vk, prove(pk, public, witness, seed=77))

    def test_prove_many_bytes_identical_across_worker_counts(self, instance):
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        jobs = [(public, witness)] * 2
        reference = [b.to_bytes()
                     for b in prove_many(pk, jobs, workers=0, base_seed=13)]
        for w in (1,):
            assert [b.to_bytes() for b in
                    prove_many(pk, jobs, workers=w, base_seed=13)] == reference
        for w in (2, 4):
            with ProverPool(workers=w) as p:
                assert [b.to_bytes() for b in
                        prove_many(pk, jobs, pool=p,
                                   base_seed=13)] == reference

    def test_no_shared_memory_means_inline(self, instance, pool,
                                           monkeypatch):
        """Where shared memory is unavailable a live pool is not a second
        dispatcher: the batch runs on the caller, says so in its report,
        and the bytes do not move."""
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        jobs = [(public, witness)] * 2
        reference = [b.to_bytes()
                     for b in prove_many(pk, jobs, workers=0, base_seed=21)]
        fanned = prove_many(pk, jobs, pool=pool, base_seed=21,
                            attach_report=True)
        assert fanned[0].report.dispatch == "shm"
        monkeypatch.setattr(shm, "shm_supported", lambda: False)
        inline = prove_many(pk, jobs, pool=pool, base_seed=21,
                            attach_report=True)
        assert inline[0].report.dispatch == "serial"
        assert inline[0].report.workers == 1
        assert ([b.to_bytes() for b in inline]
                == [b.to_bytes() for b in fanned] == reference)


class TestStreamingCommit:
    def _pcs(self, streaming_cells, num_rows=16, seed=3):
        from repro.pcs.orion import OrionPCS, PCSParams

        return OrionPCS(params=PCSParams(num_rows=num_rows),
                        rng=np.random.default_rng(seed),
                        streaming_cells=streaming_cells)

    def test_chain_hasher_matches_hash_columns(self):
        rng = np.random.default_rng(41)
        for rows, cols, tiles in [(1, 3, [1]), (4, 8, [4]), (10, 6, [8, 2]),
                                  (17, 5, [8, 8, 1]), (32, 12, [16, 16])]:
            matrix = rng.integers(0, 1 << 63, size=(rows, cols),
                                  dtype=np.uint64)
            chains = fieldhash.ColumnChainHasher(cols, rows)
            lo = 0
            for t in tiles:
                chains.update(matrix[lo : lo + t])
                lo += t
            assert chains.finalize() == b"".join(
                fieldhash.hash_columns(matrix))

    def test_chain_hasher_rejects_bad_geometry(self):
        chains = fieldhash.ColumnChainHasher(4, 16)
        with pytest.raises(ValueError):
            chains.update(np.zeros((3, 4), dtype=np.uint64))  # partial word
        with pytest.raises(ValueError):
            chains.finalize()  # not all rows fed

    def _prover(self, r1cs, streaming_cells, repetitions=1):
        from repro.spartan.protocol import SpartanParams, SpartanProver

        return SpartanProver(r1cs, self._pcs(streaming_cells),
                             SpartanParams(repetitions=repetitions))

    def test_streaming_commit_matches_materialized(self):
        """Tiled and one-shot commits hold the same codeword matrix under
        the same root."""
        rng = np.random.default_rng(43)
        table = rng.integers(0, 1 << 63, size=1 << 10, dtype=np.uint64)
        com_a, state_a = self._pcs(streaming_cells=1 << 60).commit(table)
        with obs.tracing():
            com_b, state_b = self._pcs(1).commit(table)
            assert obs.METRICS.counters()["pcs.streaming_commits"] == 1
        assert com_a.root == com_b.root
        assert np.array_equal(state_a.codewords, state_b.codewords)
        assert np.array_equal(state_a.matrix, state_b.matrix)

    def test_streaming_proof_bytes_identical(self, instance):
        """End-to-end: a prover whose PCS tiles its commit produces the
        same proof bytes as the one-shot commit, and the verifier
        accepts."""
        from repro.snark.serialize import proof_to_bytes
        from repro.spartan.protocol import SpartanParams, SpartanVerifier

        r1cs, public, witness = instance
        reference = proof_to_bytes(
            self._prover(r1cs, 1 << 60).prove(public, witness))
        proof = self._prover(r1cs, 1).prove(public, witness)
        assert proof_to_bytes(proof) == reference
        assert SpartanVerifier(r1cs, self._pcs(1 << 60),
                               SpartanParams(repetitions=1)).verify(
                                   public, proof)

    def test_tiled_prove_encodes_each_row_once(self, instance):
        """One RS encode per proof: the opens gather from the codewords
        the commit kept, whatever the repetition count."""
        r1cs, public, witness = instance
        rows = 16
        with obs.tracing():
            self._prover(r1cs, 1, repetitions=3).prove(public, witness)
            counters = obs.METRICS.counters()
        assert counters["pcs.streaming_commits"] == 1
        assert counters["rs.rows_encoded"] == rows + 1

    def test_tiled_commit_phase_families(self):
        """Tile encodes are charged to rs_encode and tile folds to merkle,
        so a profile does not change shape at the tiling threshold."""
        r1cs, public, witness = synthetic_r1cs(log_size=12, seed=9)
        seconds = {}
        for cells in (1, 1 << 60):
            with obs.tracing() as tracer:
                self._prover(r1cs, cells).prove(public, witness)
            seconds[cells] = tracer.family_seconds()
        assert set(seconds[1]) == set(seconds[1 << 60])
        assert seconds[1]["merkle"] > 0 and seconds[1 << 60]["merkle"] > 0
        assert seconds[1]["rs_encode"] > 0 and seconds[1 << 60]["rs_encode"] > 0

    def test_streaming_bounds_peak_memory_at_2_18(self):
        """Tiling bounds the commit's transients, not the codeword it
        keeps: at 2^18 the tiled commit peaks under 2x the codeword bytes
        where the one-shot commit needs more than 3x."""
        import tracemalloc

        rng = np.random.default_rng(53)
        table = rng.integers(0, 1 << 63, size=1 << 18, dtype=np.uint64)
        rows = 128 + 1  # + zk mask row
        peaks = {}
        for cells in (1, 1 << 60):
            pcs = self._pcs(streaming_cells=cells, num_rows=128, seed=5)
            cw_bytes = rows * pcs.code.codeword_length((1 << 18) // 128) * 8
            tracemalloc.start()
            _, state = pcs.commit(table)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert state.codewords.nbytes == cw_bytes
            peaks[cells] = peak / cw_bytes
            del state
        assert 1.0 <= peaks[1] < 2.0, f"tiled peak {peaks[1]:.2f}x codeword"
        assert peaks[1 << 60] > 3.0, f"one-shot peak {peaks[1 << 60]:.2f}x"


class TestPersistentPool:
    def test_get_pool_reuses_and_shutdown_clears(self):
        assert get_pool(1) is None
        a = get_pool(2)
        try:
            assert a is not None and a.workers == 2
            assert get_pool(2) is a  # same warm pool
            b = get_pool(3)
            assert b is not a and b.workers == 3
        finally:
            shutdown()
        from repro.parallel import pool as pool_mod

        assert pool_mod._GLOBAL_POOL is None

    def test_broadcast_is_cached_per_object(self):
        payload = {"weights": np.arange(64, dtype=np.uint64)}
        with ProverPool(workers=2) as p:
            t1, d1 = p.broadcast(payload)
            t2, d2 = p.broadcast(payload)
            assert t1 == t2 and d1 == d2
            other = {"weights": np.arange(64, dtype=np.uint64)}
            t3, _ = p.broadcast(other)
            assert t3 != t1

    def test_proving_key_pickle_drops_caches(self, instance):
        import pickle

        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        r1cs.products(r1cs.assemble_z(public, witness))  # populate caches
        assert r1cs._stacked_cache is not None
        clone = pickle.loads(pickle.dumps(pk))
        assert clone.r1cs._stacked_cache is None
        assert clone.r1cs.a._groups is None
        # the clone still proves correctly
        z = clone.r1cs.assemble_z(public, witness)
        assert clone.r1cs.is_satisfied(z)
