"""The traced run (``--trace 1``): the per-layer ledger.

Same instances and seed as the untraced run.  Its core is the staged
proof (:mod:`staged`) run beside the whole calls it must equal — inside
one cycle, each call between two bursts of the host-speed reference, so
every ratio compares neighbours in time at the same speed.  Around it sit
physical-unit probes on this workload's commit geometry and the
layer-specific one-offs (plan build, pool warm-up, daemon overheads).
Every number is timed from ``bench/`` around public calls, reported at
reference host speed like the end-to-end metrics, and lands in
``out/<workload>.spans.json`` next to the spans it was read from.
"""

from __future__ import annotations

import itertools
import os
import pickle
import socket
import statistics
import threading
import time
from typing import Callable, Dict, List

import numpy as np

from repro import ProofBundle, obs, prove, verify
from repro.field import vector as fv
from repro.hashing import Transcript, open_many
from repro.hashing.fieldhash import ColumnChainHasher, hash_columns
from repro.ntt.radix2 import ntt_zero_padded
from repro.parallel import get_pool
from repro.pcs.orion import STREAM_TILE_ROWS
from repro.service import protocol

import defs
import host
import staged
from spans import SpanRecorder
from workloads import (BatchWorkload, BenchFailure, Cycle, ServiceWorkload,
                       Statement, Workload, registry_statement)

P, V, C = staged.PROVE_ROOT, staged.VERIFY_ROOT, staged.COMMIT_ROOT


def med(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def repeat(fn: Callable[[], object], budget_s: float = 0.5,
           max_reps: int = 5) -> float:
    """Median seconds of ``fn`` over up to ``max_reps`` calls or
    ``budget_s``, at least one."""
    times: List[float] = []
    t_begin = time.perf_counter()
    while len(times) < max_reps:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - t_begin > budget_s:
            break
    return statistics.median(times)


def traced_run(wl: Workload, first: Cycle, seconds: float,
               out_dir: str) -> Dict[str, float]:
    """The traced window and the probes; returns every per-layer metric."""
    return _TracedRun(wl, first).run(seconds, out_dir)


class _TracedRun:
    def __init__(self, wl: Workload, first: Cycle):
        self.wl = wl
        self.tally = wl.tally
        self.first = first
        self.rec = SpanRecorder()
        self.metrics: Dict[str, float] = {n: 0.0 for n in defs.PER_LAYER_UNITS}
        if isinstance(wl, ServiceWorkload):
            # The in-process twin of what the daemon proves.
            self.statements = [registry_statement(defs.SERVICE_CIRCUIT)]
        else:
            self.statements = wl.statements
        #: Seconds the program's own tracer attributes to phase families,
        #: per traced cycle.
        self.obs_phases: Dict[int, float] = {}
        #: Whole cycles through the workload's own path, when that is not
        #: the serial call (pool, daemon), and batch_small's serial twin.
        self.path_cycles: List[Cycle] = []
        self.serial_cycles: List[Cycle] = []
        self.trees: dict = {}
        self.notes: dict = {}
        #: Host-speed factor of the latest :meth:`bracket`.
        self.last_factor = 1.0

    def largest(self) -> Statement:
        return max(self.statements,
                   key=lambda s: s.pk.r1cs.shape.num_constraints)

    def bracket(self, fn: Callable[[], object], name: str = ""):
        """Run ``fn`` between two bursts of the host-speed reference, under
        a span called ``name`` if given; every span opened inside is
        scaled to reference speed.  Returns ``fn``'s value."""
        rec = self.rec
        start = len(rec.names)
        before = self.wl.speed(reuse=True)
        if name:
            with rec.span(name):
                value = fn()
        else:
            value = fn()
        self.last_factor = defs.CALIB_REF_S / (
            (before + self.wl.speed()) / 2)
        rec.set_scale(start, self.last_factor)
        return value

    def probe(self, fn: Callable[[], object], **kwargs) -> float:
        """:func:`repeat` between two bursts: median seconds at reference
        speed."""
        seconds = self.bracket(lambda: repeat(fn, **kwargs))
        return seconds * self.last_factor

    # -- driver ---------------------------------------------------------------
    def run(self, seconds: float, out_dir: str) -> Dict[str, float]:
        m, wl = self.metrics, self.wl
        calib0 = wl.speed()
        m["r1cs.compile_s"] = sum(st.build_s for st in self.statements)
        self.tally.attempt("plan-build probe", self.probe_plan_build)

        wl.warm_checks(self.first)
        k = 1
        failed_in_a_row = 0
        t_start = time.perf_counter()
        while (time.perf_counter() - t_start < seconds and
               failed_in_a_row < defs.MAX_CONSECUTIVE_FAILED_CYCLES):
            self.rec.cycle = k
            ok = self.tally.attempt(f"traced cycle {k}", self.traced_cycle, k)
            failed_in_a_row = 0 if ok else failed_in_a_row + 1
            k += 1
        self.rec.cycle = -1
        self.seed_after = wl.prove_seed(k)

        probes = [("kernel fan-out", self.probe_kernel_fanout),
                  ("kernel probes", self.probe_kernels),
                  ("transcript probe", self.probe_transcript)]
        if isinstance(wl, BatchWorkload):
            probes.append(("nocap model", self.probe_nocap))
        if isinstance(wl, ServiceWorkload):
            probes.append(("service probes", self.probe_service))
        for what, probe in probes:
            self.tally.attempt(what, probe)
        self.derive()

        calib1 = wl.speed()
        m["host.calib_s"] = calib0
        m["host.calib_drift"] = abs(calib1 - calib0) / calib0
        m["host.cpu_count"] = host.cpu_count()
        os.makedirs(out_dir, exist_ok=True)
        self.rec.dump(os.path.join(out_dir, f"{wl.name}.spans.json"), {
            "workload": wl.name, "seed": wl.seed, "metrics": m,
            "self_seconds": {root: self.rec.self_seconds_by_name(root)
                             for root in (P, V, C)},
            "notes": self.notes, "host": host.facts()})
        return m

    # -- the traced cycle -----------------------------------------------------
    def traced_cycle(self, k: int) -> bool:
        """Every statement of the cycle proved four ways with one seed —
        staged, ``prove``, the bare ``SpartanProver``, ``prove`` under the
        program's tracer — and verified three ways; the commit staged
        once more on its own; then the cycle once through the workload's
        own path where that is not the serial call."""
        rec, wl, bracket = self.rec, self.wl, self.bracket
        seed = wl.prove_seed(k)
        obs_phases = 0.0
        for st in self.statements:
            bundle = bracket(lambda: staged.staged_prove(
                st.pk, st.public, st.witness, seed, rec, st.circuit_id))
            ref = bracket(lambda: prove(
                st.pk, st.public, st.witness, seed=seed,
                circuit_id=st.circuit_id), "ref.prove")
            bracket(lambda: st.pk.prover(
                rng=np.random.default_rng(seed)).prove(
                    st.public, st.witness, Transcript()), "bare.prove")
            with obs.tracing() as tracer:
                bracket(lambda: prove(st.pk, st.public, st.witness,
                                      seed=seed), "obs.prove")
            obs_phases += self.last_factor * sum(
                tracer.family_seconds("snark.prove").values())

            def codec():
                with rec.span("snark.to_bytes"):
                    envelope = bundle.to_bytes()
                with rec.span("snark.from_bytes"):
                    return envelope, ProofBundle.from_bytes(envelope)

            envelope, parsed = bracket(codec)
            if ref.to_bytes() != envelope:
                raise BenchFailure("staged proof bytes differ from prove()")
            if not bracket(lambda: staged.staged_verify(st.vk, parsed, rec)):
                raise BenchFailure("staged verify rejected the staged proof")
            valid = bracket(lambda: verify(st.vk, parsed), "ref.verify")
            bare_valid = bracket(lambda: st.vk.verifier().verify(
                parsed.public, parsed.proof, Transcript()), "bare.verify")
            if not (valid and bare_valid):
                raise BenchFailure("verify rejected the staged proof")

            z = st.pk.r1cs.assemble_z(st.public, st.witness)
            tree = bracket(lambda: staged.staged_commit(
                st.pk, st.pk.r1cs.split_z(z)[1], seed, rec))
            if tree.root != bundle.proof.witness_commitment.root:
                raise BenchFailure("staged commit root differs from commit()")
            self.trees[st.circuit_id] = tree
        self.obs_phases[k] = obs_phases
        if isinstance(wl, BatchWorkload):
            pooled = wl._cycle(k)
            serial = wl._cycle(k, 1)
            self.path_cycles.append(pooled)
            self.serial_cycles.append(serial)
            self.metrics["parallel.bytes_mismatches"] += sum(
                a != b for a, b in zip(pooled.envelopes, serial.envelopes))
        elif isinstance(wl, ServiceWorkload):
            self.path_cycles.append(wl._cycle(k))
        return True

    # -- probes -----------------------------------------------------------------
    def probe_plan_build(self) -> None:
        """First ``products`` / ``combined_transpose_matvec`` on a key
        fresh off the wire (pickling drops the lazily built plans); the
        steady call is subtracted in :meth:`derive`."""
        first_products = first_transpose = 0.0
        for st in self.statements:
            fresh = pickle.loads(pickle.dumps(st.pk.r1cs))
            z = fresh.assemble_z(st.public, st.witness)

            def first_calls():
                t0 = time.perf_counter()
                fresh.products(z)
                t1 = time.perf_counter()
                fresh.combined_transpose_matvec((1, 2, 3), z)
                return t1 - t0, time.perf_counter() - t1

            products_s, transpose_s = self.bracket(first_calls)
            first_products += products_s * self.last_factor
            first_transpose += transpose_s * self.last_factor
        self.notes["first_products_s"] = first_products
        self.notes["first_transpose_s"] = first_transpose

    def probe_kernel_fanout(self) -> None:
        """``prove(workers=2)`` of the largest statement against the serial
        call: ROADMAP item 3(b)'s evidence.  Not published on one CPU, nor
        on batch_small, whose pool fans out jobs, not kernels."""
        if host.cpu_count() < 2 or isinstance(self.wl, BatchWorkload):
            return
        st = self.largest()
        get_pool(2)  # spawn and warm outside the timing
        seed = self.seed_after
        pooled = self.bracket(lambda: prove(
            st.pk, st.public, st.witness, seed=seed, workers=2), "w2.prove")
        serial = self.bracket(lambda: prove(
            st.pk, st.public, st.witness, seed=seed), "w1.prove")
        w2_s, w1_s = (self.rec.duration(self.rec.roots(name)[-1])
                      for name in ("w2.prove", "w1.prove"))
        self.metrics["parallel.kernel_speedup_w2"] = ratio(w1_s, w2_s)
        self.metrics["parallel.bytes_mismatches"] += int(
            pooled.to_bytes() != serial.to_bytes())

    def probe_kernels(self) -> None:
        """Physical-unit probes at the largest statement's commit
        geometry: field multiply, fused scale-add, the zero-padded NTT one
        streaming tile wide, leaf hashing, the column chain fold and the
        Merkle multi-opening."""
        m = self.metrics
        st = self.largest()
        geo = staged.commit_geometry(st.pk)
        rng = np.random.default_rng(self.wl.seed)
        cw_len, cols = geo["cw_len"], geo["cols"]
        n = STREAM_TILE_ROWS * cw_len
        a, b = fv.rand_vector(n, rng), fv.rand_vector(n, rng)
        m["field.mul_melem_per_s"] = n / 1e6 / self.probe(
            lambda: fv.mul(a, b))
        m["field.scale_add_melem_per_s"] = n / 1e6 / self.probe(
            lambda: fv.scale_add(a, b, 0x1234567))
        tile = a[: STREAM_TILE_ROWS * cols].reshape(STREAM_TILE_ROWS, cols)
        butterflies = STREAM_TILE_ROWS * (cw_len // 2) * max(
            1, cols.bit_length() - 1)
        m["ntt.butterflies_per_s"] = butterflies / self.probe(
            lambda: ntt_zero_padded(tile, cw_len))

        rows = STREAM_TILE_ROWS if geo["streamed"] else geo["total_rows"]
        matrix = fv.rand_vector(rows * cw_len, rng).reshape(rows, cw_len)
        mbytes = matrix.nbytes / 1e6
        m["hashing.leaf_mb_per_s"] = mbytes / self.probe(
            lambda: hash_columns(matrix), max_reps=3)

        def chain_fold():
            chains = ColumnChainHasher(cw_len, rows)
            for lo in range(0, rows, STREAM_TILE_ROWS):
                chains.update(matrix[lo: lo + STREAM_TILE_ROWS])
            chains.finalize()

        m["hashing.chain_fold_mb_per_s"] = mbytes / self.probe(chain_fold,
                                                               max_reps=3)
        tree = self.trees[st.circuit_id]
        indices = [int(i) for i in rng.integers(
            0, cw_len, size=st.pk.preset.column_queries)]
        m["hashing.open_many_s"] = self.probe(
            lambda: open_many(tree, indices))

    def probe_transcript(self) -> None:
        """Fiat-Shamir cost per operation (absorb one field element,
        squeeze one challenge)."""
        tr = Transcript()
        ops = 2000

        def run():
            for i in range(ops // 2):
                tr.absorb_field(b"bench/x", i)
                tr.challenge_field(b"bench/c")

        self.metrics["hashing.transcript_op_us"] = self.probe(run) / ops * 1e6

    def probe_nocap(self) -> None:
        """The simulated side: Table 4's speedups are exact numbers a
        simulator speed-up must leave identical; only host time may move."""
        from repro.analysis import gmean
        from repro.baselines import DEFAULT_CPU
        from repro.nocap.simulator import prover_seconds
        from repro.workloads.spec import PAPER_WORKLOADS

        sim: dict = {}

        def simulate():
            for w in PAPER_WORKLOADS:
                sim[w.name] = prover_seconds(w.raw_constraints)

        m = self.metrics
        m["nocap.sim_host_s"] = self.probe(simulate, max_reps=1)
        m["nocap.table4_gmean_speedup"] = gmean([
            DEFAULT_CPU.prover_seconds(w.raw_constraints) / sim[w.name]
            for w in PAPER_WORKLOADS])
        m["nocap.table4_max_rel_err"] = max(
            abs(sim[w.name] - w.paper_nocap_s) / w.paper_nocap_s
            for w in PAPER_WORKLOADS)

    def probe_service(self) -> None:
        m, wl = self.metrics, self.wl
        client = wl.client
        m["service.daemon_start_s"] = (
            wl.daemon.start_s * defs.CALIB_REF_S / self.first.calib_prove_s)
        m["service.ping_rtt_s"] = self.probe(client.ping, max_reps=50)
        _index, envelope = self.first.envelopes[0]
        reply = protocol.ok_response(
            job_id="svc-0", state="done", cached=False,
            envelope=protocol.encode_blob(envelope))

        def codec():
            a, b = socket.socketpair()
            with a, b:
                frame = protocol.pack_frame(reply)
                sender = threading.Thread(target=a.sendall, args=(frame,))
                sender.start()
                parsed = protocol.read_frame_sync(b)
                sender.join()
            if protocol.decode_blob(parsed["envelope"]) != envelope:
                raise BenchFailure("frame codec round trip changed bytes")

        m["service.frame_codec_s"] = self.probe(codec, max_reps=9)
        stats = client.stats()  # before the bursts add their cold misses
        bursts = itertools.count(1)

        def burst():
            # Seeds no cycle of this run has used: every job is a cold prove.
            base = self.seed_after + 1000 * next(bursts)
            ids = [client.submit("prove", circuit_id=defs.SERVICE_CIRCUIT,
                                 seed=base + j) for j in range(4)]
            for job_id in ids:
                if client.result(job_id).get("state") != "done":
                    raise BenchFailure("pipelined job did not finish")

        m["service.burst4_s"] = self.probe(burst, budget_s=1.0, max_reps=3)
        for name, key in (("service.proof_cache_hit_rate", "proof_cache"),
                          ("service.pk_cache_hit_rate", "pk_cache")):
            cache = stats[key]
            m[name] = ratio(cache["hits"], cache["hits"] + cache["misses"])
        queue = stats["queue"]
        m["service.rejected"] = (queue["rejected_full"]
                                 + queue["rejected_client"])

    # -- metrics read off the spans ------------------------------------------------
    def derive(self) -> None:
        m, rec = self.metrics, self.rec
        geos = [staged.commit_geometry(st.pk) for st in self.statements]
        cells = sum(g["cells"] for g in geos)
        constraints = sum(st.pk.r1cs.shape.num_constraints
                          for st in self.statements)
        reps = self.statements[0].pk.preset.sumcheck_repetitions

        per_cycle = rec.per_cycle

        def stage(name: str, under=None) -> float:
            return med(per_cycle(name, under).values())

        def paired(num: Dict[int, float], den: Dict[int, float]) -> float:
            """Median over cycles of num/den, each from the same cycle."""
            return med(ratio(num[c], den[c]) for c in num if c in den)

        def stages_under(root: str) -> Dict[int, float]:
            out: Dict[int, float] = {}
            for i, parent in enumerate(rec.parents):
                if (parent is not None and rec.names[parent] == root
                        and rec.cycles[i] >= 0):
                    out[rec.cycles[i]] = (out.get(rec.cycles[i], 0.0)
                                          + rec.duration(i))
            return out

        m["r1cs.products_s"] = stage("r1cs.products", P)
        m["r1cs.products_nnz_per_s"] = ratio(
            sum(st.pk.r1cs.nnz for st in self.statements),
            m["r1cs.products_s"])
        m["r1cs.transpose_matvec_s"] = stage("r1cs.transpose_matvec", P)
        m["r1cs.plan_build_s"] = max(0.0, (
            self.notes.get("first_products_s", 0.0) - m["r1cs.products_s"]
            + self.notes.get("first_transpose_s", 0.0)
            - m["r1cs.transpose_matvec_s"] / reps))
        m["multilinear.sumcheck2_s"] = stage("multilinear.sumcheck2", P)
        m["multilinear.sumcheck_entries_per_s"] = ratio(
            reps * 2 * constraints, m["multilinear.sumcheck2_s"])
        m["multilinear.mle_eval_s"] = stage("multilinear.mle_eval", P)
        m["spartan.sumcheck1_s"] = stage("spartan.sumcheck1", P)
        m["spartan.prove_s"] = stage("bare.prove")
        m["spartan.verify_s"] = stage("bare.verify")
        m["pcs.commit_s"] = stage("pcs.commit", P)
        m["pcs.commit_cells_per_s"] = ratio(cells, m["pcs.commit_s"])
        m["pcs.open_s"] = stage("pcs.open", P)
        m["pcs.verify_s"] = stage("pcs.verify", V)
        m["pcs.streamed"] = int(any(g["streamed"] for g in geos))
        m["snark.to_bytes_s"] = stage("snark.to_bytes")
        m["snark.from_bytes_s"] = stage("snark.from_bytes")
        m["code.encode_rows_s"] = stage("code.encode_rows", C)
        m["code.encode_cells_per_s"] = ratio(cells, m["code.encode_rows_s"])
        m["hashing.merkle_build_s"] = stage("hashing.merkle_build", C)

        ref_prove, ref_verify = per_cycle("ref.prove"), per_cycle("ref.verify")
        staged_prove, staged_verify = per_cycle(P), per_cycle(V)
        m["closure.prove_ratio"] = paired(stages_under(P), ref_prove)
        m["closure.verify_ratio"] = paired(stages_under(V), ref_verify)
        m["closure.commit_ratio"] = paired(stages_under(C),
                                           per_cycle("pcs.commit", P))
        m["trace.overhead_frac"] = paired(
            {c: staged_prove[c] + staged_verify.get(c, 0.0)
             for c in staged_prove},
            {c: ref_prove[c] + ref_verify.get(c, 0.0)
             for c in ref_prove}) - 1.0
        m["snark.api_overhead_frac"] = paired(
            ref_prove, per_cycle("bare.prove")) - 1.0
        obs_prove = per_cycle("obs.prove")
        m["obs.tracing_overhead_frac"] = paired(obs_prove, ref_prove) - 1.0
        m["obs.phase_closure_ratio"] = paired(self.obs_phases, obs_prove)
        ref_prove_p50 = med(ref_prove.values())
        ref_verify_p50 = med(ref_verify.values())
        self.notes["ref_prove_p50_s"] = ref_prove_p50
        self.notes["ref_verify_p50_s"] = ref_verify_p50

        # What came first in this process, against its steady state.
        path_prove = med(c.prove_ref_s for c in self.path_cycles)
        wl = self.wl
        if isinstance(wl, BatchWorkload):
            m["parallel.pool_warm_s"] = max(
                0.0, self.first.prove_ref_s - path_prove)
            m["parallel.batch_speedup_w2"] = ratio(
                med(c.prove_ref_s for c in self.serial_cycles), path_prove)
            # The pool proved the warm-up cycle, so the first proof made
            # by this process itself is traced cycle 1's staged proof.
            m["snark.first_prove_extra_s"] = max(
                0.0, staged_prove.get(1, 0.0) - med(staged_prove.values()))
        elif isinstance(wl, ServiceWorkload):
            m["snark.first_prove_extra_s"] = max(
                0.0, self.first.prove_ref_s - path_prove)
            rtts = [c.prove_ref_s for c in self.path_cycles]
            m["service.direct_prove_p50_s"] = ref_prove_p50
            m["service.overhead_prove_s"] = path_prove - ref_prove_p50
            m["service.overhead_verify_s"] = (
                med(c.verify_ref_s for c in self.path_cycles)
                - ref_verify_p50 - m["snark.from_bytes_s"])
            m["service.cached_hit_p50_s"] = med(
                c.cached_ref_s for c in self.path_cycles)
            m["service.prove_n"] = len(rtts)
            m["service.prove_p90_s"] = (
                statistics.quantiles(rtts, n=10)[8] if len(rtts) >= 10
                else max(rtts, default=0.0))
        else:
            m["snark.first_prove_extra_s"] = max(
                0.0, self.first.prove_ref_s - ref_prove_p50)
