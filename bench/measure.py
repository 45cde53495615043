"""One benchmark run: cold starts, warm-up, the timed window, the result.

A run is a thin parent and a few children, one after another (rule 2: at
most ``min(2, nproc)`` busy processes at any instant; the parent only
waits).  Each child is a cold start — the parent clocks it from spawn to
its "first proof verified" line.  The last child carries on as the
measuring process: its first cycle was the un-timed warm-up cycle, and
cycles then repeat back to back (closed loop) until the window is spent;
a cycle in flight at the deadline finishes and counts.

Every timing is taken beside a burst of the host-speed reference
(:class:`host.Calibrator`) and reported at reference speed; the raw
seconds stay in ``out/<workload>.e2e.json``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

import defs
import host
from workloads import Cycle, Tally, Workload, make_workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Sample lists of the timed window: raw seconds, and the same cycles at
#: reference host speed (``Cycle.*_ref_s``).
TIMED = ("prove_s", "verify_s", "e2e_s", "loop_s")
SAMPLES = TIMED + tuple(n.replace("_s", "_ref_s") for n in TIMED) + (
    "calib_prove_s", "calib_verify_s")


def quartiles(values: List[float]) -> dict:
    """Median, quartiles and count of a sample list."""
    if not values:
        return {"n": 0, "p50": 0.0, "p25": 0.0, "p75": 0.0}
    if len(values) == 1:
        return {"n": 1, "p50": values[0], "p25": values[0], "p75": values[0]}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "p50": statistics.median(values),
            "p25": q1, "p75": q3}


# -- the measuring child ---------------------------------------------------------

def timed_window(wl: Workload, first: Cycle, seconds: float) -> dict:
    """Warm-up checks, then cycles back to back for ``seconds``; returns
    the sample lists and what the end-to-end metrics are read from."""
    wl.warm_checks(first)
    del first
    gc.collect()  # once; the collector stays on during the window
    samples: dict = {name: [] for name in SAMPLES}
    proofs = first_bytes = 0
    last: Optional[Cycle] = None
    failed_in_a_row = 0
    k = 1
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:
        cycle = wl.cycle(k)
        k += 1
        if cycle is None:
            failed_in_a_row += 1
            if failed_in_a_row >= defs.MAX_CONSECUTIVE_FAILED_CYCLES:
                break
            continue
        failed_in_a_row = 0
        for name in SAMPLES:
            samples[name].append(getattr(cycle, name))
        proofs += cycle.proofs
        first_bytes = first_bytes or cycle.nbytes
        last = cycle
    window_s = time.perf_counter() - t_start
    if last is not None:
        wl.tamper_check(last)
    return {"window_s": window_s, "cycles": len(samples["loop_s"]),
            "proofs": proofs, "proof_bytes": first_bytes, "samples": samples}


def child_main(workload: str, seed: int, seconds: float, trace: bool,
               role: str, scale: defs.Scale) -> int:
    """Body of one child process (``--role cold`` or ``--role measure``)."""
    tally = Tally()
    wl = make_workload(workload, scale, seed, tally, OUT_DIR)
    result: dict = {"workload": workload, "role": role, "seed": seed,
                    "scale": scale.name}
    cal = host.Calibrator()
    calib_before = cal.burst()

    def build_and_first() -> Cycle:
        wl.build()
        return wl._cycle(0)

    try:
        first = tally.attempt("build and first cycle", build_and_first)
        if first is not None:
            # The parent clocks the cold start; it needs the calibration
            # beside it and the seconds calibrating took out of it.
            calib_s = (calib_before + cal.burst()) / 2
            print(defs.MARK_FIRST_PROOF + json.dumps(
                {"calib_s": calib_s, "calib_spent_s": cal.spent_s}),
                flush=True)
            first.calib_prove_s = first.calib_verify_s = calib_s
            wl.cal = cal  # from here on every cycle brackets itself
            if role == "measure" and trace:
                import layers

                result["per_layer"] = layers.traced_run(
                    wl, first, seconds, OUT_DIR)
            elif role == "measure":
                result["e2e"] = timed_window(wl, first, seconds)
    finally:
        wl.close()
    result.update(peak_rss_mb=wl.peak_rss_mb, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.failures)
    print(defs.MARK_RESULT + json.dumps(result), flush=True)
    return 0


# -- the parent ----------------------------------------------------------------

def run_child(workload: str, seed: int, seconds: float, trace: bool,
              role: str, scale: defs.Scale
              ) -> Tuple[Optional[dict], Optional[dict], int]:
    """Spawn one child and wait for it.  Returns (its cold start —
    ``wall_s`` from spawn to its first-proof line less the seconds it
    spent calibrating, and ``calib_s`` — or None; its result or None; its
    exit code)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--role", role]
    if scale is defs.SMALL:
        cmd.append("--small")
    cold = result = None
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith(defs.MARK_FIRST_PROOF) and cold is None:
                wall_s = time.perf_counter() - t_spawn
                cold = json.loads(line[len(defs.MARK_FIRST_PROOF):])
                cold["wall_s"] = wall_s - cold.pop("calib_spent_s")
            elif line.startswith(defs.MARK_RESULT):
                result = json.loads(line[len(defs.MARK_RESULT):])
            else:
                print(line, file=sys.stderr)
    finally:
        proc.stdout.close()
        code = proc.wait()
    return cold, result, code


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: defs.Scale = defs.FULL) -> dict:
    """One run of one workload.  Returns the detailed result; its
    ``"line"`` entry is the object printed as the last line of stdout."""
    tally = Tally()
    cold: dict = {"wall_s": [], "calib_s": []}
    measured: Optional[dict] = None
    t_begin = time.perf_counter()
    while True:
        n = len(cold["wall_s"]) + 1
        if trace:
            last = True  # the traced run reports no set-up time
        else:
            spent = time.perf_counter() - t_begin
            last = n >= 2 and (
                n >= defs.COLD_START_MAX
                or spent + statistics.median(cold["wall_s"])
                > defs.COLD_START_BUDGET_S)
        started, result, code = run_child(
            workload, seed, seconds, trace,
            "measure" if last else "cold", scale)
        tally.check(f"cold start {n}: first proof verified, exit 0",
                    started is not None and result is not None and code == 0)
        if result is not None:
            tally.merge(result["attempted"], result["failed"],
                        result["failures"])
        if started is None:
            break
        for name in cold:
            cold[name].append(started[name])
        if last:
            measured = result
            break

    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "scale": scale.name,
        "comparable": scale is defs.FULL,
    }
    if trace:
        per_layer = (measured or {}).get("per_layer", {})
        tally.check("traced run reported every per-layer metric",
                    all(name in per_layer for name in defs.PER_LAYER_UNITS))
        metrics = {name: {"value": per_layer.get(name, 0.0), "unit": unit}
                   for name, unit in defs.PER_LAYER_UNITS.items()}
    else:
        e2e = (measured or {}).get("e2e")
        tally.check("timed window completed at least one cycle",
                    bool(e2e and e2e["cycles"]))
        values, stats = end_to_end_values(e2e, cold, measured)
        detail["stats"] = stats
        detail["raw"] = dict(e2e["samples"] if e2e else {}, cold=cold)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in defs.END_TO_END_UNITS.items()}
    detail["line"] = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail["failures"] = tally.failures
    os.makedirs(OUT_DIR, exist_ok=True)
    kind = "layers" if trace else "e2e"
    with open(os.path.join(OUT_DIR, f"{workload}.{kind}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def end_to_end_values(e2e: Optional[dict], cold: dict,
                      measured: Optional[dict]) -> Tuple[dict, dict]:
    """The seven end-to-end values, each read from its own operations, and
    the statistics behind them (count, median and quartiles, at reference
    speed and raw)."""
    samples = e2e["samples"] if e2e else {name: [] for name in SAMPLES}
    cold_ref = [wall * defs.CALIB_REF_S / calib
                for wall, calib in zip(cold["wall_s"], cold["calib_s"])]
    stats = {"setup_s": dict(quartiles(cold_ref),
                             raw=quartiles(cold["wall_s"]))}
    for metric, name in (("prove_p50_s", "prove"), ("verify_p50_s", "verify"),
                         ("e2e_p50_s", "e2e"), ("proofs_per_s", "loop")):
        stats[metric] = dict(quartiles(samples[f"{name}_ref_s"]),
                             raw=quartiles(samples[f"{name}_s"]))
    values = {metric: stats[metric]["p50"] for metric in (
        "setup_s", "prove_p50_s", "verify_p50_s", "e2e_p50_s")}
    # Verified proofs per second of closed loop: every second of a cycle
    # counts, serialisation and the cache-hit request included.
    cycles = len(samples["loop_s"])
    loop_s = stats["proofs_per_s"]["p50"]
    values["proofs_per_s"] = (e2e["proofs"] / cycles / loop_s
                              if cycles and loop_s else 0.0)
    stats["proofs_per_s"].update(proofs=e2e["proofs"] if e2e else 0,
                                 window_s=e2e["window_s"] if e2e else 0.0)
    values["proof_bytes"] = e2e["proof_bytes"] if e2e else 0
    values["peak_rss_mb"] = measured["peak_rss_mb"] if measured else 0.0
    stats["proof_bytes"] = {"n": min(cycles, 1)}
    stats["peak_rss_mb"] = {"n": 1 if measured else 0}
    for name, value in values.items():
        stats[name]["value"] = value
    return values, stats
