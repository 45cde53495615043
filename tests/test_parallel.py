"""Tests for the parallel proving engine (:mod:`repro.parallel`).

The load-bearing property is the determinism contract: the batch prover
must produce bytes **identical** to the in-process path at any worker
count.  Worker counts are kept small (2) so the suite stays fast on small
CI machines; the contract is count-independent by construction (pure
jobs, submission-order assembly).
"""

import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.hashing import fieldhash
from repro.parallel import get_pool, usable_cpus
from repro.pcs import orion
from repro.snark import TEST, ProvingKey, prove, prove_many, setup, verify
from repro.workloads import synthetic_r1cs


@pytest.fixture(scope="module")
def instance():
    return synthetic_r1cs(log_size=10, seed=9)


def _shm_entries():
    """Everything in /dev/shm (Linux): a batch must add nothing to it."""
    try:
        return sorted(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return []


def _batch_bytes(pk, jobs, **kwargs):
    return [b.to_bytes() for b in prove_many(pk, jobs, **kwargs)]


@pytest.fixture
def fleet_sizes(monkeypatch):
    """``max_workers`` of every executor a batch starts (``prove_batch``
    imports the executor from :mod:`concurrent.futures` when it forks)."""
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


class TestSerialFallback:
    def test_serial_pool_never_spawns(self, instance, fleet_sizes):
        """One worker, or one job, proves on the caller."""
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        for workers, jobs in ((1, 2), (0, 2), (2, 1)):
            bundles = prove_many(pk, [(public, witness)] * jobs,
                                 workers=workers, base_seed=1)
            assert bundles[0].report.dispatch == "serial"
        assert fleet_sizes == []

    def test_workers_default_is_cpu_count(self, instance, monkeypatch):
        """``workers=None`` fans out to every usable CPU."""
        from repro.snark import api

        asked = []

        def recording(pk, publics, witnesses, seeds, workers, *args):
            asked.append(workers)
            return [None] * len(seeds)  # "prove them yourself"

        monkeypatch.setattr(api, "usable_cpus", lambda: 3)
        monkeypatch.setattr(api, "prove_batch", recording)
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        bundles = prove_many(pk, [(public, witness)] * 2, base_seed=1)
        assert asked == [3]
        assert bundles[0].report.workers == 3

    def test_cpu_counting_respects_affinity(self, instance, monkeypatch):
        """Pinned to 1 CPU of many, the default is one prover, not one per
        installed core, and ``prove_many`` stays on the caller."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 1
        assert get_pool() is None
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        bundles = prove_many(pk, [(public, witness)] * 2, base_seed=1)
        assert bundles[0].report.dispatch == "serial"

    def test_explicit_workers_fork_on_one_cpu(self, instance, monkeypatch):
        """An explicit ``workers=2`` is honoured on a 1-CPU host: the
        batch forks, and its bytes are the serial batch's."""
        from repro.snark import api

        monkeypatch.setattr(api, "usable_cpus", lambda: 1)
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        jobs = [(public, witness)] * 2
        bundles = prove_many(pk, jobs, workers=2, base_seed=6)
        assert bundles[0].report.dispatch == "pool"
        assert bundles[0].report.workers == 2
        assert ([b.to_bytes() for b in bundles]
                == _batch_bytes(pk, jobs, workers=0, base_seed=6))
        assert multiprocessing.active_children() == []

    def test_batch_forks_no_more_workers_than_jobs(self, instance,
                                                   fleet_sizes):
        """A 2-job batch asking for 16 workers starts 2 processes: the
        fleet is paid for per batch, so it is sized to the batch."""
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        jobs = [(public, witness)] * 2
        got = prove_many(pk, jobs, workers=16, base_seed=1)
        assert fleet_sizes == [2]
        assert got[0].report.dispatch == "pool"
        assert ([b.to_bytes() for b in got]
                == _batch_bytes(pk, jobs, workers=0, base_seed=1))


class TestProofDeterminism:
    def test_pooled_prove_bytes_identical(self, instance, fleet_sizes):
        """A single proof is one job: ``prove(workers=2)`` after
        ``get_pool(2)`` (what the repo benchmark calls) still runs on the
        caller — no worker process is started — and gives the serial
        bytes.  ``get_pool`` builds nothing."""
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        serial = prove(pk, public, witness, seed=21)
        assert get_pool(2) is None
        pooled = prove(pk, public, witness, seed=21, workers=2)
        assert fleet_sizes == []
        assert pooled.to_bytes() == serial.to_bytes()
        assert verify(vk, pooled)

    def test_prove_many_worker_count_invariant(self, instance):
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        jobs = [(public, witness)] * 3
        ser = prove_many(pk, jobs, workers=1, base_seed=33, circuit_id="syn")
        par = prove_many(pk, jobs, workers=2, base_seed=33, circuit_id="syn")
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

    def test_fork_never_pickles_the_key(self, instance, monkeypatch):
        """Forked workers inherit the batch: with ``ProvingKey`` made
        unpicklable the batch still completes on the pool."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        jobs = [(public, witness)] * 2
        reference = _batch_bytes(pk, jobs, workers=0, base_seed=8)

        def refuse(self, protocol):
            raise AssertionError("the proving key was pickled")

        monkeypatch.setattr(ProvingKey, "__reduce_ex__", refuse)
        got = prove_many(pk, jobs, workers=2, base_seed=8)
        assert got[0].report.dispatch == "pool"
        assert got[0].report.events == {}
        assert [b.to_bytes() for b in got] == reference

    def test_workers_inherit_the_gather_plans(self, tmp_path,
                                              monkeypatch):
        """A key no process has proved with yet: its gather plans are
        built once, by the caller, not by every worker of every batch."""
        from repro.r1cs import matrices

        log = tmp_path / "plan_builds"
        build = matrices.StackedMatrices.__init__

        def counted(self, mats):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            build(self, mats)

        monkeypatch.setattr(matrices.StackedMatrices, "__init__", counted)
        r1cs, public, witness = synthetic_r1cs(log_size=8, seed=3)
        pk, _ = setup(r1cs, TEST)
        for base_seed in (1, 2):
            prove_many(pk, [(public, witness)] * 2, workers=2,
                       base_seed=base_seed)
        assert log.read_text().split() == [str(os.getpid())]

    def test_spawn_gives_fork_and_serial_bytes(self, instance,
                                               monkeypatch):
        """The only path a platform without ``fork`` has: the same
        statement under the spawn context (batch pickled once per
        worker) gives the bytes fork and the caller give."""
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        jobs = [(public, witness)] * 2
        reference = _batch_bytes(pk, jobs, workers=0, base_seed=9)
        forked = _batch_bytes(pk, jobs, workers=2, base_seed=9)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        spawned = prove_many(pk, jobs, workers=2, base_seed=9)
        assert spawned[0].report.dispatch == "pool"
        assert spawned[0].report.events == {}
        assert [b.to_bytes() for b in spawned] == forked == reference
        assert multiprocessing.active_children() == []

    def test_five_keys_interleaved_over_three_rounds(self):
        """Five distinct keys in rotation (more than the four the old
        per-worker key cache held): every batch is byte-identical to
        the caller's."""
        keys = []
        for seed in range(5):
            r1cs, public, witness = synthetic_r1cs(log_size=8, seed=seed)
            keys.append((setup(r1cs, TEST)[0], [(public, witness)] * 2))
        reference = [_batch_bytes(pk, jobs, workers=0, base_seed=3)
                     for pk, jobs in keys]
        for _ in range(3):
            assert [_batch_bytes(pk, jobs, workers=2, base_seed=3)
                    for pk, jobs in keys] == reference


def _counting_writer(monkeypatch):
    """Count the proof payloads written: every envelope writes one."""
    from repro.snark import envelope

    calls = []
    real = envelope.proof_to_bytes

    def counting(proof, **kwargs):
        calls.append(1)
        return real(proof, **kwargs)

    monkeypatch.setattr(envelope, "proof_to_bytes", counting)
    return calls


class TestEachEnvelopeSerializedOnce:
    """A job's envelope is written once — by ``prove`` for its report —
    and those bytes are the ones shipped: a pooled job returns them, and
    ``prove_many``'s in-process rerun keeps them."""

    def test_pooled_job(self, instance, monkeypatch):
        from repro.parallel import pool

        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        calls = _counting_writer(monkeypatch)
        monkeypatch.setattr(pool, "_BATCH", None)
        pool.park_batch(pk, [public], [witness])
        seed = np.random.SeedSequence(5)
        blob = pool.prove_job(0, seed, "x")
        assert len(calls) == 1
        calls.clear()
        assert blob == prove(pk, public, witness, seed=seed,
                             circuit_id="x").to_bytes()

    def test_in_process_batch(self, instance, monkeypatch):
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        calls = _counting_writer(monkeypatch)
        bundles = prove_many(pk, [(public, witness)] * 2, workers=1,
                             base_seed=3)
        assert len(calls) == 2
        assert bundles[0].report.proof_size_bytes == sum(
            b.size_bytes() for b in bundles)


class TestTracedBatch:
    def test_traced_pooled_batch_gives_serial_bytes(self, instance):
        """Tracing never changes proof bytes: a pooled 2-job batch under
        ``obs.tracing()`` returns the untraced serial batch's envelopes,
        and the caller's tracer holds the batch span."""
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        jobs = [(public, witness)] * 2
        reference = _batch_bytes(pk, jobs, workers=0, base_seed=2)
        with obs.tracing() as tracer:
            bundles = prove_many(pk, jobs, workers=2, base_seed=2)
        assert bundles[0].report.dispatch == "pool"
        assert [b.to_bytes() for b in bundles] == reference
        assert [rec.name for rec in tracer.records()] == ["snark.prove_many"]


class TestShmRoundTrip:
    """What is left of the shared-memory suite: a batch leaves nothing."""

    def test_no_leaks_after_pooled_prove(self, instance):
        before = _shm_entries()
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        bundles = prove_many(pk, [(public, witness)] * 2, workers=2,
                             base_seed=4)
        assert all(verify(vk, b) for b in bundles)
        assert _shm_entries() == before
        assert multiprocessing.active_children() == []


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
            assert _batch_bytes(pk, jobs, workers=w,
                                base_seed=13) == reference


def _encode_tile(cells):
    """Patch the commit's encode tile (``1``: one row per tile; ``1 << 60``:
    the whole matrix in one)."""
    return mock.patch.object(orion, "ENCODE_TILE_CELLS", cells)


class TestStreamingCommit:
    """The commit streams its rows through the encoder in tiles at every
    size; the tile constant changes no codeword, root or proof byte."""

    def _pcs(self, num_rows=16, seed=3):
        from repro.pcs.orion import OrionPCS, PCSParams

        return OrionPCS(params=PCSParams(num_rows=num_rows),
                        rng=np.random.default_rng(seed))

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
            chains.update(np.zeros((3, 5), dtype=np.uint64))  # wrong width
        chains.update(np.zeros((3, 4), dtype=np.uint64))  # any tile height
        with pytest.raises(ValueError):
            chains.finalize()  # under-fed: 3 of 16 rows
        with pytest.raises(ValueError):
            chains.update(np.zeros((14, 4), dtype=np.uint64))  # over-fed
        chains.update(np.zeros((13, 4), dtype=np.uint64))
        assert chains.finalize() == b"".join(
            fieldhash.hash_columns(np.zeros((16, 4), dtype=np.uint64)))

    def _prover(self, r1cs, repetitions=1):
        from repro.spartan.protocol import SpartanParams, SpartanProver

        return SpartanProver(r1cs, self._pcs(),
                             SpartanParams(repetitions=repetitions))

    def test_streaming_commit_matches_materialized(self):
        """Commits encoded one row per tile and in one whole-matrix tile
        hold the codeword matrix ``encode_rows`` makes, under one root."""
        rng = np.random.default_rng(43)
        table = rng.integers(0, 1 << 63, size=1 << 10, dtype=np.uint64)
        commits = []
        for cells in (1, 1 << 60):
            with _encode_tile(cells):
                commits.append(self._pcs().commit(table))
        (com_a, state_a), (com_b, state_b) = commits
        assert com_a.root == com_b.root
        assert np.array_equal(state_a.codewords, state_b.codewords)
        assert np.array_equal(state_a.matrix, state_b.matrix)
        assert np.array_equal(state_a.codewords,
                              self._pcs().code.encode_rows(state_a.matrix))

    def test_streaming_proof_bytes_identical(self, instance):
        """End-to-end: proofs whose commit took one row per tile and one
        tile for everything are the same bytes, and the verifier
        accepts."""
        from repro.snark.serialize import proof_to_bytes
        from repro.spartan.protocol import SpartanParams, SpartanVerifier

        r1cs, public, witness = instance
        with _encode_tile(1 << 60):
            reference = proof_to_bytes(
                self._prover(r1cs).prove(public, witness))
        with _encode_tile(1):
            proof = self._prover(r1cs).prove(public, witness)
        assert proof_to_bytes(proof) == reference
        assert SpartanVerifier(r1cs, self._pcs(),
                               SpartanParams(repetitions=1)).verify(
                                   public, proof)

    def test_tiled_prove_encodes_each_row_once(self, instance):
        """One RS encode per proof: the opens gather from the codewords
        the commit kept, whatever the tile or the repetition count."""
        r1cs, public, witness = instance
        rows = 16
        for cells in (1, 1 << 60):
            with obs.tracing() as tracer, _encode_tile(cells):
                self._prover(r1cs, repetitions=3).prove(public, witness)
            assert tracer.counters["rs.rows_encoded"] == rows + 1

    def test_tiled_commit_phase_families(self):
        """Tile encodes are charged to rs_encode and the tree to merkle,
        so a profile keeps its shape whatever the tile count."""
        r1cs, public, witness = synthetic_r1cs(log_size=12, seed=9)
        seconds = {}
        for cells in (1, 1 << 60):
            with obs.tracing() as tracer, _encode_tile(cells):
                self._prover(r1cs).prove(public, witness)
            seconds[cells] = tracer.family_seconds()
        assert set(seconds[1]) == set(seconds[1 << 60])
        assert seconds[1]["merkle"] > 0 and seconds[1 << 60]["merkle"] > 0
        assert seconds[1]["rs_encode"] > 0 and seconds[1 << 60]["rs_encode"] > 0

    def test_streaming_bounds_peak_memory_at_2_18(self):
        """Tiles bound the commit's transients, not the codeword it keeps:
        at 2^18 the commit peaks under 2x the codeword bytes, where one
        whole-matrix ``encode_rows`` of the same matrix needs more than
        3x — the memory half of why the tiles exist (the other half is
        NTT stages whose temporaries fit the L2)."""
        import tracemalloc

        rng = np.random.default_rng(53)
        table = rng.integers(0, 1 << 63, size=1 << 18, dtype=np.uint64)
        pcs = self._pcs(num_rows=128, seed=5)
        cw_bytes = (128 + 1) * pcs.code.codeword_length((1 << 18) // 128) * 8

        def peak_ratio(run):
            tracemalloc.start()
            out = run()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return out, peak / cw_bytes

        (_, state), commit_peak = peak_ratio(lambda: pcs.commit(table))
        assert state.codewords.nbytes == cw_bytes
        whole, encode_peak = peak_ratio(
            lambda: pcs.code.encode_rows(state.matrix))
        assert np.array_equal(whole, state.codewords)
        assert 1.0 <= commit_peak < 2.0, f"commit peak {commit_peak:.2f}x"
        assert encode_peak > 3.0, f"whole-matrix encode {encode_peak:.2f}x"


class TestPersistentPool:
    """No pool persists; what a spawned worker unpickles still does."""

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
