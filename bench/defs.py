"""Names, bounds and constants of the repo benchmark.

``BENCHMARK.json`` at the repo root repeats ``WORKLOADS``, ``END_TO_END``
and ``PER_LAYER`` verbatim (``test_bench.py`` holds the two together);
``README.md`` explains every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Every workload runs the paper's 128-bit preset (``repro.PAPER``).
PRESET_NAME = "paper-128bit"

#: The paper's modelled prover-to-verifier link (Table 5): 10 MB/s.
LINK_BYTES_PER_S = 10_000_000

#: Measured window per run, seconds (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 12

#: Seconds of one ``host.Calibrator`` pass at this host's full speed.
#: Timings are reported at this reference speed: measured seconds times
#: ``CALIB_REF_S`` over the calibration measured beside them.
CALIB_REF_S = 0.0085

#: Cold starts per run: until this many have run or the budget is spent,
#: never fewer than two.  The last one carries on as the measuring
#: process, so its first cycle is the un-timed warm-up cycle.
COLD_START_MAX = 5
COLD_START_BUDGET_S = 6.0

#: A window whose cycles keep failing (dead daemon) stops early instead
#: of spinning until the deadline.
MAX_CONSECUTIVE_FAILED_CYCLES = 3

#: Jobs per circuit in one ``batch_small`` cycle.
BATCH_JOBS_PER_CIRCUIT = 4

#: Circuit the service workload proves.
SERVICE_CIRCUIT = "sha"

#: Timed cycle after which the daemon's high-water RSS is read.
SERVICE_RSS_AT_CYCLE = 30

#: Child-to-parent stdout protocol.
MARK_FIRST_PROOF = "BENCH first proof verified "
MARK_RESULT = "BENCH result "


@dataclass(frozen=True)
class Scale:
    """Instance sizes.  Only ``FULL`` numbers are comparable between runs
    of the benchmark; ``SMALL`` exists for ``test_bench.py``."""

    name: str
    log_2p19: int
    log_2p20: int
    registry: Tuple[str, ...]


FULL = Scale("full", 19, 20, ("litmus", "auction", "rsa", "sha", "aes"))
SMALL = Scale("small", 11, 12, ("litmus", "auction"))

WORKLOADS = [
    {"name": "prove_2p19",
     "why": "2^19 synthetic R1CS, serial prove/verify: largest size on the "
            "in-memory commit (SpMV 41%, Merkle 17% of prove); a "
            "streaming-path change must leave it unmoved"},
    {"name": "prove_2p20",
     "why": "2^20 synthetic R1CS: first size on the streaming commit (RS "
            "encode runs twice, Merkle ~1%), the 2.7x-for-2x cliff; a "
            "Merkle change must leave it unmoved"},
    {"name": "batch_small",
     "why": "five registry circuits (2^10-2^15) x 4 jobs through "
            "prove_many: fixed per-proof cost and pool dispatch dominate, "
            "kernel throughput does little"},
    {"name": "service_sha",
     "why": "repro serve daemon + one closed-loop ServiceClient (cold "
            "prove, cached repeat, verify): frame codec, queue, executor "
            "hop and caches over a 78 ms prove"},
]

# name, unit, better, bound (relative worsening that counts as a regression).
# The timings and the throughput are at reference host speed (CALIB_REF_S).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("prove_p50_s", "s", "lower", 0.25),
    ("verify_p50_s", "s", "lower", 0.25),
    ("e2e_p50_s", "s", "lower", 0.25),
    ("proofs_per_s", "1/s", "higher", 0.25),
    ("proof_bytes", "B", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# name, unit, better.  A metric a workload cannot measure natively
# (service.* outside service_sha, nocap.* and parallel.batch_* outside
# batch_small, parallel.kernel_speedup_w2 on a 1-CPU host) reads 0.
PER_LAYER = [
    ("field.mul_melem_per_s", "Melem/s", "higher"),
    ("field.scale_add_melem_per_s", "Melem/s", "higher"),
    ("ntt.butterflies_per_s", "1/s", "higher"),
    ("code.encode_rows_s", "s", "lower"),
    ("code.encode_cells_per_s", "1/s", "higher"),
    ("hashing.merkle_build_s", "s", "lower"),
    ("hashing.leaf_mb_per_s", "MB/s", "higher"),
    ("hashing.open_many_s", "s", "lower"),
    ("hashing.chain_fold_mb_per_s", "MB/s", "higher"),
    ("hashing.transcript_op_us", "us", "lower"),
    ("r1cs.products_s", "s", "lower"),
    ("r1cs.products_nnz_per_s", "1/s", "higher"),
    ("r1cs.transpose_matvec_s", "s", "lower"),
    ("r1cs.plan_build_s", "s", "lower"),
    ("r1cs.compile_s", "s", "lower"),
    ("multilinear.sumcheck2_s", "s", "lower"),
    ("multilinear.sumcheck_entries_per_s", "1/s", "higher"),
    ("multilinear.mle_eval_s", "s", "lower"),
    ("spartan.sumcheck1_s", "s", "lower"),
    ("spartan.prove_s", "s", "lower"),
    ("spartan.verify_s", "s", "lower"),
    ("pcs.commit_s", "s", "lower"),
    ("pcs.commit_cells_per_s", "1/s", "higher"),
    ("pcs.open_s", "s", "lower"),
    ("pcs.verify_s", "s", "lower"),
    ("pcs.streamed", "count", "lower"),
    ("snark.to_bytes_s", "s", "lower"),
    ("snark.from_bytes_s", "s", "lower"),
    ("snark.api_overhead_frac", "frac", "lower"),
    ("snark.first_prove_extra_s", "s", "lower"),
    ("parallel.pool_warm_s", "s", "lower"),
    ("parallel.batch_speedup_w2", "x", "higher"),
    ("parallel.kernel_speedup_w2", "x", "higher"),
    ("parallel.bytes_mismatches", "count", "lower"),
    ("service.daemon_start_s", "s", "lower"),
    ("service.ping_rtt_s", "s", "lower"),
    ("service.frame_codec_s", "s", "lower"),
    ("service.direct_prove_p50_s", "s", "lower"),
    ("service.overhead_prove_s", "s", "lower"),
    ("service.overhead_verify_s", "s", "lower"),
    ("service.cached_hit_p50_s", "s", "lower"),
    ("service.prove_p90_s", "s", "lower"),
    ("service.prove_n", "count", "higher"),
    ("service.burst4_s", "s", "lower"),
    ("service.proof_cache_hit_rate", "frac", "higher"),
    ("service.pk_cache_hit_rate", "frac", "higher"),
    ("service.rejected", "count", "lower"),
    ("obs.tracing_overhead_frac", "frac", "lower"),
    ("obs.phase_closure_ratio", "ratio", "higher"),
    ("nocap.table4_gmean_speedup", "x", "higher"),
    ("nocap.table4_max_rel_err", "frac", "lower"),
    ("nocap.sim_host_s", "s", "lower"),
    ("closure.prove_ratio", "ratio", "higher"),
    ("closure.commit_ratio", "ratio", "higher"),
    ("closure.verify_ratio", "ratio", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("host.calib_s", "s", "lower"),
    ("host.calib_drift", "frac", "lower"),
    ("host.cpu_count", "count", "higher"),
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]
END_TO_END_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _b in PER_LAYER}


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
