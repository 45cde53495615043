"""Perf-regression gate: diff a fresh bench run against a committed baseline.

Compares a candidate ``BENCH_prover.json`` (and optionally
``BENCH_faults.json``) against the baselines committed in the repo, with
per-metric relative tolerances, and exits non-zero when any metric
regressed beyond its tolerance — turning the bench trajectory from a
recorded artifact into an enforced contract.  Improvements always pass:
a regression is ``current > baseline * (1 + tolerance)`` for
cost metrics (time, bytes), evaluated per bench row at matching
``log_size``.

Two comparison modes:

* **absolute** (default): raw values compared row by row.  Right when
  the candidate ran on the same machine as the baseline (a developer
  re-running the bench before committing).
* **--calibrate**: wall-clock metrics are first normalized by the
  median ``current/baseline`` prove_s ratio across all shared rows, so
  a uniformly faster or slower machine cancels out and only *shape*
  anomalies (one size regressing while the rest track) trip the gate.
  Machine-independent metrics — ``proof_size_bytes`` (exact), the
  ``noop_overhead_frac`` ceiling and the ``growth_per_doubling`` ceiling
  across 2^16..2^20 — are enforced unscaled in both modes.
  This is what CI uses: its runners share nothing with the machine that
  produced the committed baseline.

Exit codes: 0 clean, 1 regression detected, 2 usage/IO error.

Run:
    PYTHONPATH=src python tools/bench_prover.py --json /tmp/bench.json \
        --min-log 10 --max-log 12 --workers 0
    python tools/bench_diff.py --current /tmp/bench.json \
        [--baseline BENCH_prover.json] [--calibrate] [--report diff.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Relative tolerance per metric: a row regresses when
#: ``current > baseline * (1 + tol)``.  Wall-clock tolerances are wide
#: enough for best-of-3 noise on a quiet machine but catch the 1.5-2x
#: cliffs an accidental serial fallback or dead cache causes; byte
#: metrics are tight because they are deterministic.
TOLERANCES = {
    "prove_s": 0.25,
    "verify_s": 0.35,
    "proof_size_bytes": 0.0,      # proof bytes are deterministic: exact
    "peak_rss_bytes": 0.30,
    "recovery_overhead": 0.50,    # BENCH_faults kill-recovery ratio
}

#: ``noop_overhead_frac`` is checked against this *absolute* ceiling
#: (mirroring the in-bench assertion), not against the baseline value —
#: the projection is already a ratio of two measurements on one machine.
MAX_NOOP_OVERHEAD_FRAC = 0.02


#: ``growth_per_doubling`` (a row's prove_s over the previous size's, as
#: recorded by bench_prover) may not exceed this on any step between
#: these sizes: prove time is ~n log n, so a doubling that costs more
#: means some layer fell off a cliff (the 2^20 re-encode cost 2.73x).
#: Smaller sizes are fixed-overhead dominated and too noisy to gate.
MAX_GROWTH_PER_DOUBLING = 2.4
GROWTH_GATED_LOG_SIZES = range(17, 21)


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench_diff: cannot load {path}: {exc}")


def rows_by_size(payload: dict) -> dict:
    return {row["log_size"]: row for row in payload.get("results", [])}


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 1.0


def compare_prover(baseline: dict, current: dict, calibrate: bool) -> list:
    """Compare two BENCH_prover payloads; returns a list of finding dicts
    (``regression: True`` entries are what fail the gate)."""
    findings = []
    base_rows = rows_by_size(baseline)
    cur_rows = rows_by_size(current)
    shared = sorted(set(base_rows) & set(cur_rows))
    if not shared:
        findings.append({
            "metric": "results", "regression": True,
            "detail": "no overlapping log_size rows between baseline "
                      "and current run"})
        return findings

    # Calibration factor: how fast this machine is relative to the one
    # that produced the baseline, estimated by the median per-size
    # prove_s ratio.  Dividing current wall times by it leaves only
    # per-size shape anomalies.
    scale = 1.0
    if calibrate:
        scale = median([cur_rows[s]["prove_s"] / base_rows[s]["prove_s"]
                        for s in shared
                        if base_rows[s].get("prove_s")])
        scale = max(scale, 1e-9)
        findings.append({
            "metric": "calibration", "regression": False,
            "detail": f"machine speed factor {scale:.3f}x baseline "
                      f"(median prove_s ratio over {len(shared)} sizes)"})

    wall_metrics = ("prove_s", "verify_s")
    for size in shared:
        base, cur = base_rows[size], cur_rows[size]
        for metric, tol in TOLERANCES.items():
            if metric not in base or metric not in cur:
                continue
            base_v, cur_v = float(base[metric]), float(cur[metric])
            eff_cur = cur_v / scale if metric in wall_metrics else cur_v
            limit = base_v * (1.0 + tol)
            regressed = eff_cur > limit and base_v > 0
            findings.append({
                "metric": metric, "log_size": size,
                "baseline": base_v, "current": cur_v,
                "effective_current": round(eff_cur, 6),
                "limit": round(limit, 6), "tolerance": tol,
                "regression": bool(regressed),
                "detail": (f"2^{size} {metric}: {eff_cur:.6g} vs limit "
                           f"{limit:.6g} (baseline {base_v:.6g} +{tol:.0%})"
                           if regressed else ""),
            })
        ovh = (cur.get("instrumentation") or {}).get("noop_overhead_frac")
        if ovh is not None:
            findings.append({
                "metric": "noop_overhead_frac", "log_size": size,
                "current": ovh, "limit": MAX_NOOP_OVERHEAD_FRAC,
                "regression": bool(ovh >= MAX_NOOP_OVERHEAD_FRAC),
                "detail": (f"2^{size} disabled-instrumentation overhead "
                           f"{ovh:.2%} >= {MAX_NOOP_OVERHEAD_FRAC:.0%} "
                           "ceiling" if ovh >= MAX_NOOP_OVERHEAD_FRAC
                           else ""),
            })
    for size in GROWTH_GATED_LOG_SIZES:
        growth = cur_rows.get(size, {}).get("growth_per_doubling")
        if growth is None:
            continue
        steep = growth > MAX_GROWTH_PER_DOUBLING
        findings.append({
            "metric": "growth_per_doubling", "log_size": size,
            "current": growth, "limit": MAX_GROWTH_PER_DOUBLING,
            "regression": bool(steep),
            "detail": (f"2^{size - 1} -> 2^{size} prove_s grew {growth:.2f}x "
                       f"> {MAX_GROWTH_PER_DOUBLING}x per doubling"
                       if steep else ""),
        })
    return findings


def compare_faults(baseline: dict, current: dict) -> list:
    """Compare BENCH_faults payloads: every scenario present in the
    baseline must still pass, and the kill-recovery overhead must not
    blow past its tolerance."""
    findings = []
    base_outcomes = {s["scenario"]: s for s in baseline.get("scenarios", [])}
    cur_outcomes = {s["scenario"]: s for s in current.get("scenarios", [])}
    for name, base_sc in sorted(base_outcomes.items()):
        cur_sc = cur_outcomes.get(name)
        if cur_sc is None:
            continue  # quick runs exercise a subset; absence is not failure
        ok = bool(cur_sc.get("ok", cur_sc.get("passed", False)))
        findings.append({
            "metric": "scenario", "scenario": name, "regression": not ok,
            "detail": "" if ok else f"fault scenario {name!r} now fails",
        })
    base_rec = (baseline.get("recovery_overhead") or {}).get("overhead_ratio")
    cur_rec = (current.get("recovery_overhead") or {}).get("overhead_ratio")
    if base_rec and cur_rec:
        tol = TOLERANCES["recovery_overhead"]
        limit = float(base_rec) * (1.0 + tol)
        findings.append({
            "metric": "recovery_overhead",
            "baseline": base_rec, "current": cur_rec,
            "limit": round(limit, 4), "regression": bool(cur_rec > limit),
            "detail": (f"kill-recovery overhead {cur_rec:.2f}x vs limit "
                       f"{limit:.2f}x" if cur_rec > limit else ""),
        })
    return findings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", metavar="PATH",
                    help="fresh BENCH_prover.json to gate")
    ap.add_argument("--baseline", metavar="PATH",
                    default=str(REPO_ROOT / "BENCH_prover.json"),
                    help="committed baseline (default: %(default)s)")
    ap.add_argument("--faults-current", metavar="PATH",
                    help="fresh BENCH_faults.json (optional)")
    ap.add_argument("--faults-baseline", metavar="PATH",
                    default=str(REPO_ROOT / "BENCH_faults.json"),
                    help="committed faults baseline (default: %(default)s)")
    ap.add_argument("--calibrate", action="store_true",
                    help="normalize wall-clock metrics by the median "
                         "current/baseline prove_s ratio (for CI runners "
                         "that differ from the baseline machine)")
    ap.add_argument("--report", metavar="PATH",
                    help="write the full finding list as JSON")
    args = ap.parse_args(argv)

    if not (args.current or args.faults_current):
        ap.error("nothing to gate: pass --current and/or --faults-current")

    findings = []
    if args.current:
        findings += compare_prover(load(Path(args.baseline)),
                                   load(Path(args.current)), args.calibrate)
    if args.faults_current:
        findings += compare_faults(load(Path(args.faults_baseline)),
                                   load(Path(args.faults_current)))

    regressions = [f for f in findings if f["regression"]]
    checked = [f for f in findings if f.get("metric") != "calibration"]
    for f in findings:
        if f["regression"]:
            print(f"REGRESSION  {f['detail']}")
        elif f.get("detail"):
            print(f"note        {f['detail']}")
    print(f"bench_diff: {len(checked)} checks, "
          f"{len(regressions)} regression(s)"
          f"{' [calibrated]' if args.calibrate else ''}")

    if args.report:
        Path(args.report).write_text(json.dumps({
            "baseline": str(args.baseline) if args.current else None,
            "current": str(args.current) if args.current else None,
            "calibrate": args.calibrate,
            "tolerances": TOLERANCES,
            "max_noop_overhead_frac": MAX_NOOP_OVERHEAD_FRAC,
            "max_growth_per_doubling": MAX_GROWTH_PER_DOUBLING,
            "regressions": len(regressions),
            "findings": findings,
        }, indent=2) + "\n")
        print(f"wrote {args.report}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
