#!/usr/bin/env python
"""Chaos harness: deterministic runtime fault injection for the prover.

Where ``tools/soundness_harness.py`` attacks proof *bytes*, this harness
attacks the proving *machinery*: it arms one :class:`repro.fuzz.faults.
FaultPlan` per scenario — a worker SIGKILLed mid-job, a dispatch that
hangs, a generic in-task exception, a spent deadline — runs a real
``prove_many`` batch through a pool inside the armed scope, and asserts
the fault contract on every scenario:

* the run **completes with byte-identical proofs** (the lost jobs got
  their second round, or the parent re-proved them in-process), or
* it raises a **typed** :class:`repro.errors.ReproError`, and
* either way **no child process** is left and ``/dev/shm`` is unchanged,
  and
* every fired fault left at least one matching event in the
  :data:`repro.obs.FLIGHT` flight recorder (kill -> ``worker_restart``,
  stall -> ``dispatch_stall``, spent deadline -> ``timeout``, ...), so
  no recovery is invisible to an operator reading ``repro report``.

Anything else — wrong bytes, an untyped exception, a leaked process or
segment, or a plan that never fired — fails the scenario and the process
exits nonzero.  A machine-readable injection matrix (scenario x outcome x
recovery latency) is written to ``BENCH_faults.json``.

Usage::

    PYTHONPATH=src python tools/chaos_harness.py --quick   # CI smoke
    PYTHONPATH=src python tools/chaos_harness.py           # full matrix
                                                           # + 2^16 overhead
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ProverTimeoutError, ReproError
from repro.fuzz import faults
from repro.obs.events import FLIGHT
from repro.parallel import ProverPool
from repro.snark import TEST, prove, prove_many, setup
from repro.workloads import synthetic_r1cs

#: Everything below is deterministic: fixed workload seed, fixed zk-mask
#: seeds, fixed fault injection points.  Two runs produce the same bytes.
WORKLOAD_SEED = 9
BATCH_BASE_SEED = 42
BATCH_JOBS = 3

#: Stall watchdog for chaos pools: short, so the stall scenario converges
#: in seconds.
CHAOS_STALL_TIMEOUT_S = 1.5

#: How long an injected stall sleeps — comfortably past the watchdog.
STALL_S = 6.0

#: Flight-recorder visibility contract: every injected fault must leave
#: at least one incident of a matching kind in the parent's counts (first
#: entry = the canonical kind; the rest are acceptable recovery paths).
#: A recovery the recorder cannot see is an outage
#: an operator cannot see, so invisibility fails the scenario even when
#: the proof bytes came out right.
FAULT_VISIBILITY = {
    "worker_kill": ("worker_restart", "degradation"),
    "stall": ("dispatch_stall", "worker_restart", "degradation"),
    "error": ("task_error", "degradation"),
    "deadline": ("timeout",),
}


@dataclass
class Scenario:
    """One cell of the injection matrix."""

    name: str
    op: str                       # "prove_many" | "deadline"
    kind: Optional[str] = None    # fault kind, None = no plan (control)
    site: str = ""
    workers: int = 2
    quick: bool = False           # include in --quick smoke runs
    expect_fired: bool = True
    extra: Dict[str, float] = field(default_factory=dict)


SCENARIOS: List[Scenario] = [
    # Controls: no fault, must complete identically (and at every worker
    # count the determinism contract names).
    Scenario("control_workers2", "prove_many", None, quick=True,
             expect_fired=False),
    Scenario("control_workers4", "prove_many", None, workers=4,
             expect_fired=False),
    # Worker death (uncatchable SIGKILL) mid-job.
    Scenario("worker_kill_job", "prove_many", "worker_kill", "prove_job",
             quick=True),
    # Hung dispatch: the watchdog must detect and re-drive.
    Scenario("stall_job", "prove_many", "stall", "prove_job", quick=True,
             extra={"stall_s": STALL_S}),
    # Generic in-task exception: the parent re-proves in-process.
    Scenario("error_job", "prove_many", "error", "prove_job", quick=True),
    # Spent deadline: must raise ProverTimeoutError, never degrade.
    Scenario("deadline_expiry", "deadline", None, quick=True,
             expect_fired=False),
]


def shm_entries() -> List[str]:
    try:
        return sorted(os.listdir("/dev/shm"))
    except OSError:
        return []


def leaks(shm_before: List[str]) -> List[str]:
    """What a batch left behind: child processes still alive, and
    ``/dev/shm`` entries that were not there before it."""
    children = [f"pid {p.pid}" for p in multiprocessing.active_children()]
    return children + sorted(set(shm_entries()) - set(shm_before))


class Workload:
    """The fixed statement every scenario proves, plus serial baselines."""

    def __init__(self, log_size: int = 10, jobs: int = BATCH_JOBS):
        self.r1cs, self.public, self.witness = synthetic_r1cs(
            log_size=log_size, seed=WORKLOAD_SEED)
        self.pk, self.vk = setup(self.r1cs, TEST)
        self.jobs = [(self.public, self.witness)] * jobs
        t0 = time.perf_counter()
        self.batch_baseline = self.run_op("prove_many", None)
        self.batch_baseline_s = time.perf_counter() - t0

    def run_op(self, op: str, pool: Optional[ProverPool]) -> List[bytes]:
        """The batch through ``pool`` (``None``: in-process, no pool), or
        for the deadline op one proof with a budget it cannot meet."""
        if op == "deadline":
            prove(self.pk, self.public, self.witness, seed=BATCH_BASE_SEED,
                  timeout_s=1e-4)
            raise AssertionError("a 0.1 ms deadline cannot be met")
        return [b.to_bytes()
                for b in prove_many(self.pk, self.jobs, pool=pool,
                                    workers=0 if pool is None else None,
                                    base_seed=BATCH_BASE_SEED)]


def run_scenario(sc: Scenario, wl: Workload) -> dict:
    """Execute one scenario and classify its outcome."""
    before = shm_entries()
    incidents0 = FLIGHT.incidents()
    plan = None
    if sc.kind is not None:
        plan = faults.FaultPlan(kind=sc.kind, site=sc.site,
                                token=f"chaos_{sc.name}", **sc.extra)
        faults.install(plan)
    outcome, error = "completed_identical", None
    t0 = time.perf_counter()
    try:
        # The batch runs INSIDE the armed scope so its forked workers
        # inherit the plan; a pool handed to prove_many is always used,
        # even on a single-core CI box.
        blobs = wl.run_op(sc.op, ProverPool(
            workers=sc.workers, stall_timeout_s=CHAOS_STALL_TIMEOUT_S))
        if blobs != wl.batch_baseline:
            outcome = "completed_WRONG_BYTES"
    except ProverTimeoutError as exc:
        outcome, error = "timeout_error", f"{type(exc).__name__}: {exc}"
    except ReproError as exc:
        outcome, error = "typed_error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - the harness's whole point
        outcome, error = "UNTYPED_CRASH", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    fired = plan is not None and os.path.exists(plan.claim_path)
    if plan is not None:
        faults.clear()
    leaked = leaks(before)

    if sc.op == "deadline":
        ok = outcome == "timeout_error"
    else:
        ok = outcome in ("completed_identical", "typed_error")
    if sc.expect_fired and not fired:
        ok = False
        outcome += "+PLAN_NEVER_FIRED"
    if leaked:
        ok = False

    # Fault-visibility contract: the flight recorder must have at least
    # one matching event for every injected (and fired) fault.
    flight = FLIGHT.fault_deltas(incidents0)
    visible_kinds = FAULT_VISIBILITY.get(
        sc.kind or ("deadline" if sc.op == "deadline" else ""))
    if visible_kinds is not None and (fired or sc.op == "deadline"):
        if not any(flight.get(k) for k in visible_kinds):
            ok = False
            outcome += "+FAULT_INVISIBLE"
    return {
        "scenario": sc.name,
        "kind": sc.kind or ("deadline" if sc.op == "deadline" else "none"),
        "site": sc.site,
        "op": sc.op,
        "workers": sc.workers,
        "outcome": outcome,
        "error": error,
        "fired": fired,
        "flight_events": flight,
        "leaked": leaked,
        "elapsed_s": round(elapsed, 4),
        "recovery_latency_s": round(max(0.0, elapsed - wl.batch_baseline_s),
                                    4),
        "ok": ok,
    }


def worker_count_sweep(wl: Workload) -> dict:
    """Determinism contract: identical bytes at workers {0, 1, 2, 4}."""
    byts = {}
    for workers in (0, 1, 2, 4):
        pool = ProverPool(workers=workers) if workers > 1 else None
        byts[workers] = tuple(wl.run_op("prove_many", pool))
    identical = len(set(byts.values())) == 1
    return {"worker_counts": sorted(byts), "identical": identical,
            "matches_serial_baseline":
                list(byts[0]) == wl.batch_baseline}


def recovery_overhead(log_size: int = 16, rounds: int = 5) -> dict:
    """Single worker kill in a 2-job batch at 2^``log_size``: recovery
    must cost < 2x the no-fault batch (the lost jobs' second round
    dominates).  The batch is a few tenths of a second, so one shot
    swings 0.8x-1.7x on scheduler noise: the reported ratio is the
    median of ``rounds`` (no-fault, faulted) pairs."""
    wl = Workload(log_size=log_size, jobs=2)
    pool = ProverPool(workers=2, stall_timeout_s=CHAOS_STALL_TIMEOUT_S)
    pairs, fired, identical = [], True, True
    for n in range(rounds):
        t0 = time.perf_counter()
        nofault = wl.run_op("prove_many", pool)
        nofault_s = time.perf_counter() - t0
        plan = faults.FaultPlan(kind="worker_kill", site="prove_job",
                                token=f"chaos_overhead_{n}")
        with faults.injected(plan):
            t0 = time.perf_counter()
            faulted = wl.run_op("prove_many", pool)
            faulted_s = time.perf_counter() - t0
            fired = fired and os.path.exists(plan.claim_path)
        identical = identical and faulted == nofault == wl.batch_baseline
        pairs.append((faulted_s / nofault_s, nofault_s, faulted_s))
    ratio, nofault_s, faulted_s = sorted(pairs)[len(pairs) // 2]
    return {
        "log_size": log_size,
        "rounds": rounds,
        "nofault_prove_s": round(nofault_s, 3),
        "faulted_prove_s": round(faulted_s, 3),
        "overhead_ratio": round(ratio, 3),
        "bytes_identical": identical,
        "fired": fired,
        "ok": fired and ratio < 2.0 and identical,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="run the CI smoke subset only (skips the 2^16 "
                         "recovery-overhead measurement)")
    ap.add_argument("--out", default="BENCH_faults.json",
                    help="report path (default BENCH_faults.json)")
    args = ap.parse_args(argv)

    scenarios = [s for s in SCENARIOS if s.quick] if args.quick else SCENARIOS
    t_start = time.perf_counter()
    print("building workload and serial baselines (2^10, TEST preset) ...")
    wl = Workload()
    print(f"  batch baseline ({BATCH_JOBS} jobs) "
          f"{wl.batch_baseline_s:.2f}s")

    results = []
    width = max(len(s.name) for s in scenarios)
    for sc in scenarios:
        res = run_scenario(sc, wl)
        results.append(res)
        status = "ok  " if res["ok"] else "FAIL"
        flight = ",".join(f"{k}:{v}" for k, v in
                          sorted(res["flight_events"].items())) or "-"
        print(f"  [{status}] {sc.name:<{width}}  {res['outcome']:<22} "
              f"fired={str(res['fired']):<5} "
              f"recovery={res['recovery_latency_s']:.2f}s "
              f"flight={flight}"
              + (f"  leaked={res['leaked']}" if res["leaked"] else ""))

    print("worker-count determinism sweep {0, 1, 2, 4} ...")
    sweep = worker_count_sweep(wl)
    print(f"  identical={sweep['identical']} "
          f"matches_serial={sweep['matches_serial_baseline']}")

    overhead = None
    if not args.quick:
        print("recovery overhead: single worker kill at 2^16 ...")
        overhead = recovery_overhead()
        print(f"  no-fault {overhead['nofault_prove_s']:.2f}s | "
              f"faulted {overhead['faulted_prove_s']:.2f}s | "
              f"ratio {overhead['overhead_ratio']:.2f}x "
              f"(budget < 2.0x) | identical={overhead['bytes_identical']}")

    failures = [r["scenario"] for r in results if not r["ok"]]
    ok = (not failures and sweep["identical"]
          and sweep["matches_serial_baseline"]
          and (overhead is None or overhead["ok"]))
    report = {
        "schema": "repro/faults",
        "schema_version": 2,
        "quick": args.quick,
        "workload": f"synthetic_r1cs(log_size=10, seed={WORKLOAD_SEED})",
        "stall_timeout_s": CHAOS_STALL_TIMEOUT_S,
        "scenarios": results,
        "worker_count_sweep": sweep,
        "recovery_overhead": overhead,
        "elapsed_seconds": round(time.perf_counter() - t_start, 2),
        "ok": ok,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{len(results)} scenarios in {report['elapsed_seconds']:.1f}s "
          f"(report: {args.out})")
    if not ok:
        bad = failures or ["worker_count_sweep" if not sweep["identical"]
                           else "recovery_overhead"]
        print(f"FAIL: {', '.join(bad)}")
        return 1
    print("OK: every injected fault ended in byte-identical proofs or a "
          "typed error, with no child process or segment left and a "
          "matching flight-recorder event")
    return 0


if __name__ == "__main__":
    sys.exit(main())
