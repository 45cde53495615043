"""Table II: NoCap area breakdown in a 14nm process.

Paper reference: total 45.87 mm^2 — compute 9.95 (NTT 1.80, Mul 6.34,
Add 0.96, Hash 0.84), memory system 35.92 (RF 6.01, Benes 0.11,
PHYs 29.80).
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.nocap import area_model
from repro.nocap.constants import AREA_TOTAL

PAPER = {
    "NTT FU": 1.80,
    "Multiply FU": 6.34,
    "Add FU": 0.96,
    "Hash FU": 0.84,
    "Total Compute": 9.95,
    "Reg. file (2,048 x 4 KB banks)": 6.01,
    "Benes network": 0.11,
    "Memory interface (2 x PHY)": 29.80,
    "Total memory system": 35.92,
    "Total NoCap": AREA_TOTAL,
}


def test_table2(benchmark):
    breakdown = benchmark(area_model)
    table_vals = breakdown.as_table()
    table = format_table(
        ["Building block", "Area (mm^2)", "Paper (mm^2)"],
        [(k, v, PAPER[k]) for k, v in table_vals.items()],
        "Table II: NoCap area breakdown (14nm)")
    emit("table2_area", table)
    for k, v in table_vals.items():
        assert abs(v - PAPER[k]) < 0.03, k
