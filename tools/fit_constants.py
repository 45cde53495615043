"""Refit the NoCap performance-model calibration constants.

Reproduces the one-time calibration recorded in
``repro/nocap/constants.py`` (see DESIGN.md and EXPERIMENTS.md): the
per-task-family scale factors are chosen so that, at the Table I
reference point (2^24 constraints, 3 sumcheck repetitions), the model
matches the paper's measured

* total proving time (151.3 ms, Table IV),
* per-task runtime split (Fig. 6a),
* sumcheck memory traffic (55% of Fig. 6b's total), and
* the recomputation optimization's 1.1x gain (Sec. VIII-C).

Run:  python tools/fit_constants.py
It prints the fitted values; compare them against constants.py (they are
baked in there so the library needs no fitting at import time).  Small
differences from the baked values are fixed points of the damped
iteration, not target disagreements — either set satisfies the
reproduction tolerances asserted by the test-suite and benchmarks.
"""

from __future__ import annotations

import importlib
import sys

import repro.nocap.constants as C

#: Snapshot of the baked-in values before fitting mutates the module.
BAKED = {key: getattr(C, key) for key in (
    "SUMCHECK_COMPUTE_SCALE", "SUMCHECK_TRAFFIC_SCALE", "RS_ENCODE_SCALE",
    "MERKLE_SCALE", "POLYARITH_SCALE", "SPMV_SCALE", "SPARK_COMPUTE_FACTOR")}


def run_reference(recompute=None):
    import repro.nocap.simulator as S
    import repro.nocap.tasks as T

    importlib.reload(T)
    importlib.reload(S)
    from repro.nocap.config import DEFAULT_CONFIG

    return S.NoCapSimulator(DEFAULT_CONFIG).simulate(
        1 << C.REFERENCE_LOG_N, recompute=recompute)


def fit(iterations: int = 30) -> dict:
    target_total = C.REFERENCE_TOTAL_S
    fractions = C.REFERENCE_TIME_FRACTIONS
    time_targets = {fam: fractions[fam] * target_total
                    for fam in ("sumcheck", "polyarith", "rs_encode",
                                "merkle", "spmv")}
    # Total traffic implied by poly arith being memory-bound at 25%.
    total_bytes = time_targets["polyarith"] * 1e12 / 0.25
    sumcheck_bytes_target = 0.55 * total_bytes
    recompute_gain_target = 1.10

    scales = dict(SUMCHECK_COMPUTE_SCALE=100.0, SUMCHECK_TRAFFIC_SCALE=1.0,
                  RS_ENCODE_SCALE=1.0, MERKLE_SCALE=1.0,
                  POLYARITH_SCALE=1.0, SPMV_SCALE=1.0,
                  SPARK_COMPUTE_FACTOR=0.1)
    best = None
    for _ in range(iterations):
        for key, value in scales.items():
            setattr(C, key, value)
        on = run_reference()
        off = run_reference(recompute=False)
        tf, bf = on.time_by_family, on.traffic_by_family
        gain = off.total_seconds / on.total_seconds

        err = (abs(tf["sumcheck"] / time_targets["sumcheck"] - 1)
               + abs(bf["sumcheck"] / sumcheck_bytes_target - 1)
               + abs(gain / recompute_gain_target - 1))
        if best is None or err < best[0]:
            best = (err, dict(scales))

        scales["SUMCHECK_COMPUTE_SCALE"] *= (
            time_targets["sumcheck"] / tf["sumcheck"]) ** 0.6
        scales["SUMCHECK_TRAFFIC_SCALE"] *= (
            sumcheck_bytes_target / bf["sumcheck"]) ** 0.6
        scales["SPARK_COMPUTE_FACTOR"] = min(1.0, max(
            0.02, scales["SPARK_COMPUTE_FACTOR"]
            * (gain / recompute_gain_target) ** 0.4))
        for fam, key in (("rs_encode", "RS_ENCODE_SCALE"),
                         ("merkle", "MERKLE_SCALE"),
                         ("polyarith", "POLYARITH_SCALE"),
                         ("spmv", "SPMV_SCALE")):
            scales[key] *= time_targets[fam] / tf[fam]
    return best[1]


def main() -> int:
    fitted = fit()
    print("fitted calibration constants (bake into repro/nocap/constants.py):")
    for key, value in fitted.items():
        print(f"  {key:<24} = {value:10.4f}   (baked: {BAKED[key]:.4f})")
    # Restore the baked values for any later use of this process.
    importlib.reload(C)
    run_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
