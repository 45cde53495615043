"""Functional-prover perf-regression harness.

Times real Spartan+Orion prove/verify calls on synthetic R1CS instances
across a sweep of sizes and emits the results as machine-readable JSON,
so successive PRs have a recorded perf trajectory instead of anecdotes.

Methodology: one warm-up proof per size (imports, twiddle/plan caches),
then wall-clock best-of-``--repeats`` for prove and verify.  Best-of is
deliberate — on a shared machine the minimum tracks the code's cost while
the mean tracks the machine's load.  Every timed proof is verified; the
run aborts if any fails.

Since schema_version 2 each row also carries a per-phase breakdown
(exclusive wall seconds per task family, from one additional traced
prove) and the harness asserts that the *disabled* tracer's projected
overhead — measured null-span / disabled-counter unit costs times the
observed instrumentation-event counts — stays under 2% of the proving
time, so the observability layer cannot silently tax the hot path.

Since schema_version 3 the payload also records a ``workers_sweep`` at
the largest size: job-level batch throughput via
:func:`repro.snark.prove_many` at each worker count.  Speedups are
measured, not assumed — on a single-core machine they will sit at or
below 1.0 and the JSON says so (``cpu_count``); the sweep exists to
track the trajectory on real multicore hardware.

Since schema_version 4 every size row records the process peak RSS (the
streaming commit keeps it bounded through the 2^20 sweep), and the
workers sweep carries a ``dispatch`` block per worker count (tasks
dispatched).  The harness asserts ``prove_many`` with workers stays at
or above ``--min-batch-speedup`` (default 0.95) of the serial batch —
the regression guard for the dispatch path.  Schema_version 5 dropped
the ``kernel_parallel`` rows and the probe / pickled-bytes fields along
with kernel-level fan-out itself, and schema_version 6 dropped
``dispatch.bytes_shared`` along with the shared-memory transport: a
batch's workers are forked for it and inherit the key
(docs/PERFORMANCE.md has both decision records).  Schema_version 7
dropped ``disabled_observe_s`` / ``observes_est`` with the histogram
layer, and ``dispatch.dispatches`` is read off the batch's
:class:`~repro.obs.events.JobReport` instead of a registry counter.
The flight-recorder unit cost, ``flight_record_s``, is the job record
every proof books (the recorder has no off switch).  Rows after the first also carry ``growth_per_doubling`` (this row's
``prove_s`` over the previous size's), which ``tools/bench_diff.py``
holds under 2.4x across 2^16..2^20: the scaling curve must stay smooth.

Run:  PYTHONPATH=src python tools/bench_prover.py --json BENCH_prover.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import obs
from repro.hashing import Transcript
from repro.obs.events import FlightRecorder
from repro.obs.metrics import METRICS, peak_rss_bytes
from repro.pcs import OrionPCS, PCSParams
from repro.spartan import SpartanParams, SpartanProver, SpartanVerifier
from repro.workloads import synthetic_r1cs

#: Paper-scale row count for the Orion matrix (Sec. VII-A).
DEFAULT_NUM_ROWS = 128

#: Ceiling on the disabled tracer's projected share of proving time.
MAX_NOOP_OVERHEAD_FRAC = 0.02

#: Batch proving with workers must stay within this fraction of serial
#: (the dispatch regression guard; override with
#: ``--min-batch-speedup``, 0 disables).
DEFAULT_MIN_BATCH_SPEEDUP = 0.95

#: The speedup floor is only enforced when the serial batch takes at
#: least this long: the guard exists to catch steady-state dispatch
#: regressions, and a sub-second batch is all fixed overhead — a few
#: milliseconds of scheduler noise would swing it across any floor.
#: Skipped guards are reported, never silent.
MIN_GUARD_BATCH_S = 1.0


def measure_instrumentation_unit_costs(iters: int = 200_000) -> dict:
    """Per-event cost of untraced instrumentation: a null span, a
    disabled counter increment, and the flight-recorder job record every
    proof books (measured on a private recorder, so the process-wide one
    and its spool stay untouched), by tight-loop amortization."""
    assert obs.get_tracer() is None and not METRICS.enabled
    t0 = time.perf_counter()
    for _ in range(iters):
        with obs.span("bench.noop", "other"):
            pass
    span_s = (time.perf_counter() - t0) / iters
    t0 = time.perf_counter()
    for _ in range(iters):
        METRICS.inc("bench.noop")
    inc_s = (time.perf_counter() - t0) / iters
    recorder = FlightRecorder()
    jobs = max(1, iters // 20)
    t0 = time.perf_counter()
    for _ in range(jobs):
        with recorder.job("prove", "bench", "noop"):
            pass
    flight_s = (time.perf_counter() - t0) / jobs
    return {"null_span_s": span_s, "disabled_inc_s": inc_s,
            "flight_record_s": flight_s}


def noop_overhead_frac(prove_s: float, num_spans: int, num_incs: int,
                       unit_costs: dict) -> float:
    """Projected fraction of ``prove_s`` spent in untraced instrumentation
    (each proof also books one flight-recorder job record)."""
    cost = (num_spans * unit_costs["null_span_s"]
            + num_incs * unit_costs["disabled_inc_s"]
            + unit_costs["flight_record_s"])
    return cost / prove_s if prove_s else 0.0


def bench_size(log_size: int, num_rows: int, repeats: int,
               repetitions: int, unit_costs: dict) -> dict:
    """Time prove/verify at 2^log_size constraints; returns one JSON row."""
    r1cs, public, witness = synthetic_r1cs(log_size, band=16, seed=log_size)
    params = SpartanParams(repetitions=repetitions)
    pcs_rng = np.random.default_rng(1)
    prover = SpartanProver(r1cs, OrionPCS(params=PCSParams(num_rows=num_rows),
                                          rng=pcs_rng), params)
    verifier = SpartanVerifier(r1cs, OrionPCS(params=PCSParams(num_rows=num_rows)),
                               params)

    proof = prover.prove(public, witness, Transcript())  # warm-up
    prove_s = min_wall(repeats, lambda: prover.prove(public, witness,
                                                     Transcript()))
    proof = prover.prove(public, witness, Transcript())
    if not verifier.verify(public, proof, Transcript()):
        raise SystemExit(f"proof at 2^{log_size} failed to verify")
    verify_s = min_wall(repeats, lambda: verifier.verify(public, proof,
                                                         Transcript()))

    # One traced prove for the per-phase breakdown and the event counts
    # feeding the no-op-overhead projection.
    with obs.tracing() as tracer:
        prover.prove(public, witness, Transcript())
    counters = tracer.metrics_snapshot.get("counters", {})
    num_spans = len(tracer.records())
    # Per-call counters dominate the inc count; everything else (trees,
    # sumcheck instances, encode calls) is O(10) per proof.
    num_incs = (counters.get("field.mul_batches", 0)
                + counters.get("field.scale_add_batches", 0) + 64)
    overhead = noop_overhead_frac(prove_s, num_spans, num_incs, unit_costs)
    if overhead >= MAX_NOOP_OVERHEAD_FRAC:
        raise SystemExit(
            f"disabled-tracer overhead projection at 2^{log_size} is "
            f"{overhead:.2%} of proving time (limit "
            f"{MAX_NOOP_OVERHEAD_FRAC:.0%}): the no-op fast path regressed")
    return {
        "log_size": log_size,
        "num_constraints": 1 << log_size,
        "prove_s": round(prove_s, 6),
        "verify_s": round(verify_s, 6),
        "proof_size_bytes": proof.size_bytes(),
        "verified": True,
        # Cumulative process high-water mark AFTER this size completed;
        # the streaming commit keeps its growth bounded as sizes scale.
        "peak_rss_bytes": peak_rss_bytes(),
        "phase_seconds": {fam: round(s, 6) for fam, s in
                          sorted(tracer.family_seconds().items())},
        "instrumentation": {
            "spans": num_spans,
            "counter_incs_est": num_incs,
            "noop_overhead_frac": round(overhead, 6),
        },
    }


def bench_workers(log_size: int, repeats: int, worker_counts,
                  min_batch_speedup: float) -> dict:
    """Workers sweep at one size: ``prove_many`` batch throughput at each
    worker count against the serial batch.

    Every pooled batch pays for its own workers (forked per batch), so
    that cost is inside the timed region; the dispatch block records how
    many jobs the timed runs shipped.
    """
    from repro.parallel import ProverPool, usable_cpus
    from repro.snark import TEST, prove_many, setup, verify

    # Serial baselines divide the other rows, so 1 leads the sweep.
    worker_counts = sorted(set(worker_counts) | {1})
    r1cs, public, witness = synthetic_r1cs(log_size, band=16, seed=log_size)

    # A batch of independent statements under the registry TEST preset.
    pk, vk = setup(r1cs, TEST)
    num_jobs = max(worker_counts)
    jobs = [(public, witness)] * num_jobs
    batch_rows = []
    batch_serial_s = None
    for w in worker_counts:
        pool = ProverPool(w)
        # One untimed batch: lazy imports, and the caller's NTT root
        # tables at this size, which forked workers inherit.
        prove_many(pk, jobs[: min(w, num_jobs)], pool=pool, base_seed=0)
        # The speedup a multi-second batch is guarded on must be robust
        # to this-machine noise: pair every pooled shot with a serial
        # shot taken seconds earlier (cancels slow drift — frequency
        # scaling, page cache, allocator state), then take the MEDIAN of
        # the per-round ratios (discards the heavy-tailed steal-time
        # spikes a shared vCPU lands on individual shots, which a ratio
        # of two independent minima amplifies instead).
        bundles = None
        ratios = []
        pooled_best = float("inf")
        dispatched = 0
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            prove_many(pk, jobs, workers=1, base_seed=5)
            serial_i = time.perf_counter() - t0
            t0 = time.perf_counter()
            bundles = prove_many(pk, jobs, pool=pool, base_seed=5)
            pooled_i = time.perf_counter() - t0
            ratios.append(serial_i / pooled_i)
            pooled_best = min(pooled_best, pooled_i)
            report = bundles[0].report
            if report.dispatch == "pool":
                dispatched += report.jobs
        batch_s = pooled_best
        ratios.sort()
        median_ratio = ratios[len(ratios) // 2]
        dispatch = {"dispatches": dispatched}
        if not all(verify(vk, b) for b in bundles):
            raise SystemExit(f"prove_many batch at {w} workers "
                             "produced an invalid proof")
        if w == 1:
            batch_serial_s = batch_s
        speedup = median_ratio
        batch_rows.append({
            "workers": w,
            "jobs": num_jobs,
            "batch_s": round(batch_s, 6),
            "per_proof_s": round(batch_s / num_jobs, 6),
            "speedup_vs_serial": round(speedup, 4),
            "dispatch": dispatch,
        })
        if w > 1 and min_batch_speedup > 0:
            if batch_serial_s < MIN_GUARD_BATCH_S:
                print(f"  note: {min_batch_speedup:.2f}x floor not enforced "
                      f"(serial batch {batch_serial_s:.3f}s < "
                      f"{MIN_GUARD_BATCH_S:.1f}s; too small to amortize "
                      "dispatch)")
            elif speedup < min_batch_speedup:
                raise SystemExit(
                    f"prove_many at {w} workers ran at {speedup:.2f}x "
                    f"serial, below the {min_batch_speedup:.2f}x floor: the "
                    "dispatch path regressed")
    return {
        "log_size": log_size,
        "cpu_count": usable_cpus(),
        "min_batch_speedup": min_batch_speedup,
        "guard_enforced": bool(min_batch_speedup > 0
                               and batch_serial_s >= MIN_GUARD_BATCH_S),
        "prove_many": batch_rows,
    }


def min_wall(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", metavar="PATH", default="BENCH_prover.json",
                    help="output file (default: %(default)s)")
    ap.add_argument("--min-log", type=int, default=10,
                    help="smallest log2 constraint count (default: %(default)s)")
    ap.add_argument("--max-log", type=int, default=16,
                    help="largest log2 constraint count (default: %(default)s)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N wall-clock repeats (default: %(default)s)")
    ap.add_argument("--num-rows", type=int, default=DEFAULT_NUM_ROWS,
                    help="Orion matrix rows (default: %(default)s)")
    ap.add_argument("--repetitions", type=int, default=1,
                    help="sumcheck repetitions (default: 1 — timing, not "
                         "soundness; the paper's 128-bit setting is 3)")
    ap.add_argument("--workers", default="1,2,4",
                    help="comma-separated worker counts for the parallel "
                         "sweep at the largest size (default: %(default)s); "
                         "pass 0 to skip the sweep")
    ap.add_argument("--min-batch-speedup", type=float,
                    default=DEFAULT_MIN_BATCH_SPEEDUP,
                    help="fail if prove_many with workers drops below this "
                         "fraction of serial (default: %(default)s; 0 "
                         "disables, e.g. on noisy CI runners)")
    args = ap.parse_args(argv)
    if args.min_log > args.max_log:
        ap.error(f"--min-log {args.min_log} exceeds --max-log {args.max_log}")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    unit_costs = measure_instrumentation_unit_costs()
    print(f"untraced instrumentation: null span "
          f"{unit_costs['null_span_s'] * 1e9:.0f} ns, "
          f"disabled inc {unit_costs['disabled_inc_s'] * 1e9:.0f} ns, "
          f"flight job record {unit_costs['flight_record_s'] * 1e9:.0f} ns")

    results = []
    print(f"{'size':>6} {'prove (s)':>10} {'verify (s)':>10} {'proof (B)':>10}"
          f" {'noop ovh':>9}")
    for log_size in range(args.min_log, args.max_log + 1):
        row = bench_size(log_size, args.num_rows, args.repeats,
                         args.repetitions, unit_costs)
        if results:
            row["growth_per_doubling"] = round(
                row["prove_s"] / results[-1]["prove_s"], 4)
        results.append(row)
        print(f"  2^{log_size:<3} {row['prove_s']:>10.4f} "
              f"{row['verify_s']:>10.4f} {row['proof_size_bytes']:>10} "
              f"{row['instrumentation']['noop_overhead_frac']:>9.4%}")

    worker_counts = [int(w) for w in str(args.workers).split(",") if w]
    workers_sweep = None
    if worker_counts != [0]:
        print(f"workers sweep at 2^{args.max_log} "
              f"(counts: {sorted(set(worker_counts) | {1})}):")
        workers_sweep = bench_workers(args.max_log, args.repeats,
                                      worker_counts,
                                      args.min_batch_speedup)
        for row in workers_sweep["prove_many"]:
            print(f"  batch x{row['jobs']} w={row['workers']}: "
                  f"{row['batch_s']:.4f} s "
                  f"({row['speedup_vs_serial']:.2f}x, "
                  f"{row['dispatch']['dispatches']} jobs dispatched)")

    payload = {
        "benchmark": "spartan_orion_functional_prover",
        "schema": "repro/bench-prover",
        "schema_version": 7,
        "workload": "synthetic_r1cs(band=16)",
        "num_rows": args.num_rows,
        "repetitions": args.repetitions,
        "repeats": args.repeats,
        "timing": "best-of-N wall clock, warm",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "instrumentation_unit_costs_s": {
            k: round(v, 12) for k, v in unit_costs.items()},
        "max_noop_overhead_frac": MAX_NOOP_OVERHEAD_FRAC,
        "results": results,
        "workers_sweep": workers_sweep,
    }
    Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
