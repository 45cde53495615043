"""Calibration constants for the NoCap performance model.

The paper's simulator is driven by RTL-synthesis timings and measured CPU
baselines (Sec. VII).  We cannot re-synthesize, so the structural cost
model (operation/traffic counts derived from the protocol, in
:mod:`repro.nocap.tasks`) is anchored to the paper's reported numbers
through the per-family scale factors below — exactly one constant per
task family, fit once at the Table I reference point (2^24 constraints)
and then *fixed*: every other size, workload, sweep and breakdown is
produced by the structural model.

Each constant stands in for protocol constant-factors the paper does not
fully enumerate (multiset-hash instantiations, zero-knowledge masking,
grand-product circuit shapes, control overheads).  See EXPERIMENTS.md for
the paper-vs-model residuals across all sizes.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Task-family calibration scales (dimensionless multipliers on the
# structural compute/traffic formulas).  Fit at N = 2^24, reps = 3 against
# Fig. 6a's task split of the 151.3 ms Table IV AES run; see
# tools/fit_constants.py-style derivation in EXPERIMENTS.md.
# ---------------------------------------------------------------------------
SUMCHECK_COMPUTE_SCALE = 117.95
SUMCHECK_TRAFFIC_SCALE = 1.0027
RS_ENCODE_SCALE = 0.9989
MERKLE_SCALE = 1.1099
POLYARITH_SCALE = 0.9394
SPMV_SCALE = 1.1273
#: Register-file capacity the recompute fast-forward was sized for; below
#: this its intermediates spill (Fig. 7's sharp RF downside).
RECOMPUTE_RF_REFERENCE_BYTES = 8 << 20
#: Extra multiplies per streamed source element in the recomputation
#: optimization's fast-forward (Sec. V-A).
RECOMPUTE_MULS_PER_ELEMENT = 4.0
#: Large polynomial products per sumcheck repetition (masking +
#: composition polynomials).
POLYARITH_PRODUCTS_PER_REP = 2

# ---------------------------------------------------------------------------
# Protocol inventory (Sec. V-A, Sec. VII-A).
# ---------------------------------------------------------------------------
#: Sumcheck repetitions for 128-bit soundness.
SUMCHECK_REPETITIONS = 3
#: Spark / memory-checking auxiliary sumchecks: (size_factor, degree,
#: streamed tables).  Total size 18N ("sumchecks ... up to size 18N").
SPARK_SUMCHECKS = (
    (6, 2, 3),
    (4, 2, 3),
    (4, 2, 3),
    (2, 2, 3),
    (2, 2, 3),
)
#: Relative compute intensity of the Spark sumchecks vs the core ones:
#: their degree-2 DP over sparse/counter data does fewer multiplies per
#: element, which is why they are the memory-bound part of the family
#: (and why the recomputation optimization pays off there).
SPARK_COMPUTE_FACTOR = 0.0763
#: Committed data per constraint, in field elements: the witness half
#: (0.5) plus Spark's sparse-matrix commitments (row/col/val MLEs for A,
#: B, C plus timestamp counters).
COMMITTED_ELEMENTS_PER_CONSTRAINT = 6.5
#: Orion matrix rows (Sec. VII-A).
ORION_ROWS = 128
#: Non-zeros per R1CS matrix row (A, B, C are near-permutations).
NNZ_PER_ROW = 1.0

# ---------------------------------------------------------------------------
# Area model (Table II, 14nm, mm^2) at the default configuration.
# ---------------------------------------------------------------------------
AREA_NTT_FU = 1.80        # 64 lanes
AREA_MUL_FU = 6.34        # 2,048 lanes
AREA_ADD_FU = 0.96        # 2,048 lanes
AREA_HASH_FU = 0.84       # 128 lanes
AREA_REGISTER_FILE = 6.01 # 8 MB (2,048 x 4 KB banks)
AREA_BENES = 0.11         # 128-wide
AREA_MEM_PHY = 29.80      # 2 x HBM2E PHY (512 GB/s each)
AREA_TOTAL = 45.87

# ---------------------------------------------------------------------------
# Power model (Fig. 5): 62 W total at the 16M-constraint reference run,
# split 13% FUs / 44% register file / 42% HBM (~1% Benes & control).
# ---------------------------------------------------------------------------
POWER_TOTAL_W = 62.0
POWER_FRACTION_FU = 0.13
POWER_FRACTION_RF = 0.44
POWER_FRACTION_HBM = 0.42
POWER_FRACTION_OTHER = 0.01

# ---------------------------------------------------------------------------
# Reference measurements the scales are fit against (Table IV AES row and
# Fig. 6 percentages).
# ---------------------------------------------------------------------------
REFERENCE_LOG_N = 24
REFERENCE_TOTAL_S = 0.1513
#: Fig. 6a NoCap runtime fractions (normalized to sum to 1).
REFERENCE_TIME_FRACTIONS = {
    "sumcheck": 0.70,
    "polyarith": 0.12,
    "rs_encode": 0.09,
    "merkle": 0.05,
    "spmv": 0.005,
    "other": 0.035,
}
#: Fig. 6b NoCap memory-traffic fractions.
REFERENCE_TRAFFIC_FRACTIONS = {
    "sumcheck": 0.55,
    "polyarith": 0.25,
    "merkle": 0.09,
    "rs_encode": 0.09,
    "spmv": 0.01,
    "other": 0.01,
}
#: Fig. 6b: "Overall utilization of compute resources is 60%".
REFERENCE_COMPUTE_UTILIZATION = 0.60
