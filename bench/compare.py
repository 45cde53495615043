"""The suite, the pairwise comparison, and the A/A gate.

A result file is what :func:`run_suite` returns: per workload, one entry
per untraced run (its seven end-to-end values) and the per-layer values
and stage shares of one traced run.  :func:`compare` reads two of them and
judges every (metric, workload) pair against the metric's bound and both
sides' quartile spread; :func:`main_aa` runs both sides on the same tree —
the benchmark must give the same answer twice before it may judge a
change.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

import defs
import host
import measure


# -- running ---------------------------------------------------------------------

def run_workload_once(results: dict, workload: str, seed: int,
                      seconds: float, scale: defs.Scale) -> None:
    detail = measure.run(workload, seed, seconds, False, scale)
    line = detail["line"]
    results["runs"].setdefault(workload, []).append({
        "seed": seed,
        "metrics": {n: v["value"] for n, v in line["metrics"].items()},
        "samples": {n: s["n"] for n, s in detail["stats"].items()},
        "raw": detail["raw"],
        "attempted": line["attempted"], "failed": line["failed"],
    })
    results["failed"] += line["failed"]
    print(f"bench: {workload} seed {seed}: " + "  ".join(
        f"{n}={v['value']:.5g}" for n, v in line["metrics"].items()),
        file=sys.stderr)


def trace_workload(results: dict, workload: str, seed: int, seconds: float,
                   scale: defs.Scale) -> None:
    detail = measure.run(workload, seed, seconds, True, scale)
    line = detail["line"]
    results["per_layer"][workload] = {
        n: v["value"] for n, v in line["metrics"].items()}
    results["failed"] += line["failed"]
    spans_path = os.path.join(measure.OUT_DIR, f"{workload}.spans.json")
    try:
        with open(spans_path) as fh:
            self_seconds = json.load(fh)["self_seconds"]
    except (OSError, ValueError, KeyError):
        return
    shares = {}
    for root, stages in self_seconds.items():
        total = sum(stages.values())
        shares[root] = {name: secs / total for name, secs in sorted(
            stages.items(), key=lambda kv: -kv[1])} if total else {}
    results["shares"][workload] = shares


def new_results(seconds: float, scale: defs.Scale) -> dict:
    return {"host": host.facts(), "scale": scale.name,
            "comparable": scale is defs.FULL, "seconds": seconds,
            "failed": 0, "runs": {}, "per_layer": {}, "shares": {}}


def run_suite(runs: int, seed: int, seconds: float,
              scale: defs.Scale) -> dict:
    """Every workload ``runs`` times untraced (seeds ``seed``, ``seed+1``,
    ...), then once traced."""
    results = new_results(seconds, scale)
    for i in range(runs):
        for workload in defs.WORKLOAD_NAMES:
            run_workload_once(results, workload, seed + i, seconds, scale)
    for workload in defs.WORKLOAD_NAMES:
        trace_workload(results, workload, seed, seconds, scale)
    return results


# -- comparing -------------------------------------------------------------------

def summary(values: List[float]) -> dict:
    """Median, quartiles, count and quartile spread (as a share of the
    median) of one side's runs."""
    q = measure.quartiles(values)
    q["spread"] = (q["p75"] - q["p25"]) / q["p50"] if q["p50"] else 0.0
    return q


def judge(a: List[float], b: List[float], better: str, bound: float) -> dict:
    """One (metric, workload) pair: B against A.

    ``worse`` / ``better``: B's median is off A's by more than the bound,
    and either both spreads fit inside the bound or every run of B is on
    that side of every run of A.  ``unresolved``: a spread wider than the
    bound hides the answer.  ``same``: within the bound, spreads too.
    """
    sa, sb = summary(a), summary(b)
    sign = 1.0 if better == "lower" else -1.0
    base = sa["p50"]
    worsening = sign * (sb["p50"] - base) / base if base else 0.0
    steady = max(sa["spread"], sb["spread"]) <= bound
    if sign > 0:
        all_worse, all_better = min(b) > max(a), max(b) < min(a)
    else:
        all_worse, all_better = max(b) < min(a), min(b) > max(a)
    if worsening > bound:
        verdict = "worse" if steady or all_worse else "unresolved"
    elif worsening < -bound:
        verdict = "better" if steady or all_better else "unresolved"
    else:
        verdict = "same" if steady else "unresolved"
    return {"a": sa, "b": sb, "ratio_b_over_a": sb["p50"] / base if base
            else 0.0, "base": base, "worsening": worsening, "bound": bound,
            "verdict": verdict}


def compare(res_a: dict, res_b: dict) -> Dict[str, Dict[str, dict]]:
    out: Dict[str, Dict[str, dict]] = {}
    for workload in defs.WORKLOAD_NAMES:
        runs_a = res_a["runs"].get(workload, [])
        runs_b = res_b["runs"].get(workload, [])
        if not runs_a or not runs_b:
            continue
        out[workload] = {}
        for name, _unit, better, bound in defs.END_TO_END:
            out[workload][name] = judge(
                [r["metrics"][name] for r in runs_a],
                [r["metrics"][name] for r in runs_b], better, bound)
    return out


def print_comparison(table: Dict[str, Dict[str, dict]]) -> None:
    print(f"{'workload':<12} {'metric':<13} {'A p50 [p25, p75] n':<38} "
          f"{'B p50 [p25, p75] n':<38} {'B/A':>7} {'bound':>6}  verdict")
    for workload, metrics in table.items():
        for name, j in metrics.items():
            def side(s):
                return (f"{s['p50']:.5g} [{s['p25']:.5g}, {s['p75']:.5g}] "
                        f"{s['n']}")
            print(f"{workload:<12} {name:<13} {side(j['a']):<38} "
                  f"{side(j['b']):<38} {j['ratio_b_over_a']:>7.4f} "
                  f"{j['bound']:>6.2f}  {j['verdict']}"
                  f" (base {j['base']:.5g})")


def all_same(table: Dict[str, Dict[str, dict]]) -> bool:
    return all(j["verdict"] == "same"
               for metrics in table.values() for j in metrics.values())


def main_compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        res_a = json.load(fh)
    with open(path_b) as fh:
        res_b = json.load(fh)
    for key in ("scale", "seconds"):
        if res_a.get(key) != res_b.get(key):
            print(f"bench: the two files differ in {key} "
                  f"({res_a.get(key)} vs {res_b.get(key)}): not comparable",
                  file=sys.stderr)
            return 2
    table = compare(res_a, res_b)
    print_comparison(table)
    return 1 if any(j["verdict"] == "worse" for m in table.values()
                    for j in m.values()) else 0


# -- the A/A gate -----------------------------------------------------------------

def baseline_from(res_a: dict, res_b: dict,
                  table: Dict[str, Dict[str, dict]]) -> dict:
    """What the next issue sizes its claim from: pooled medians, quartiles
    and counts of the A/A runs, the A/A verdicts, per-layer values and
    stage shares, and the host they were measured on."""
    end_to_end = {}
    for workload in defs.WORKLOAD_NAMES:
        pooled = res_a["runs"].get(workload, []) + res_b["runs"].get(
            workload, [])
        end_to_end[workload] = {}
        for name, unit, _better, bound in defs.END_TO_END:
            entry = summary([r["metrics"][name] for r in pooled])
            entry.update(
                unit=unit, bound=bound,
                samples_per_run=[r["samples"][name] for r in pooled],
                aa=({k: table[workload][name][k] for k in
                     ("ratio_b_over_a", "worsening", "verdict")}
                    if workload in table else None))
            end_to_end[workload][name] = entry
    return {
        "host": res_a["host"], "scale": res_a["scale"],
        "comparable": res_a["comparable"], "seconds": res_a["seconds"],
        "runs_per_side": {w: len(r) for w, r in res_a["runs"].items()},
        "seeds": {w: [r["seed"] for r in res_a["runs"].get(w, [])
                      + res_b["runs"].get(w, [])]
                  for w in defs.WORKLOAD_NAMES},
        "end_to_end": end_to_end,
        "per_layer": res_a["per_layer"],
        "shares": res_a["shares"],
    }


def main_aa(n: int, seed: int, seconds: float, scale: defs.Scale,
            baseline_path: Optional[str]) -> int:
    """The suite ``n`` times per side on this same tree, sides
    interleaved run by run and every run on its own seed; then the
    comparison.  Exit 1 unless every pair reads ``same``."""
    res_a, res_b = new_results(seconds, scale), new_results(seconds, scale)
    for i in range(n):
        for workload in defs.WORKLOAD_NAMES:
            run_workload_once(res_a, workload, seed + 2 * i, seconds, scale)
            run_workload_once(res_b, workload, seed + 2 * i + 1, seconds,
                              scale)
    for workload in defs.WORKLOAD_NAMES:
        trace_workload(res_a, workload, seed, seconds, scale)
    # Both sides in full, raw samples included, for --compare and for
    # anyone who wants to try another estimator on the same runs.
    for side, results in (("A", res_a), ("B", res_b)):
        with open(os.path.join(measure.OUT_DIR, f"aa.{side}.json"),
                  "w") as fh:
            json.dump(results, fh)
    table = compare(res_a, res_b)
    print_comparison(table)
    if baseline_path:
        with open(baseline_path, "w") as fh:
            json.dump(baseline_from(res_a, res_b, table), fh, indent=1)
            fh.write("\n")
    failed = res_a["failed"] + res_b["failed"]
    if failed:
        print(f"bench: {failed} operation(s) failed", file=sys.stderr)
    return 0 if all_same(table) and not failed else 1
