"""Fig. 6: (a) runtime breakdown across tasks for CPU and NoCap, and
(b) NoCap memory-traffic breakdown.

Paper reference (NoCap): runtime ~70% sumcheck, 12% poly arith, 9% RS,
5% Merkle, 0.5% SpMV; traffic 55% sumcheck, 25% poly arith, 9% Merkle,
9% RS, 1% SpMV; overall compute utilization 60%.
CPU runtime: 70% sumcheck, 19% RS, 6% poly, 3% Merkle, 2% SpMV.
"""

from conftest import emit

from repro.analysis.figures import ascii_bar_chart
from repro.analysis.tables import format_table
from repro.baselines.cpu import CPU_TIME_FRACTIONS
from repro.nocap import NoCapSimulator
from repro.nocap.constants import (
    REFERENCE_COMPUTE_UTILIZATION,
    REFERENCE_LOG_N,
    REFERENCE_TIME_FRACTIONS as PAPER_NOCAP_TIME,
    REFERENCE_TRAFFIC_FRACTIONS as PAPER_NOCAP_TRAFFIC,
)


def _simulate():
    return NoCapSimulator().simulate(1 << REFERENCE_LOG_N)


def test_fig6(benchmark):
    report = benchmark(_simulate)
    tf = report.time_fractions()
    bf = report.traffic_fractions()
    families = ("sumcheck", "polyarith", "rs_encode", "merkle", "spmv")
    table = format_table(
        ["Task", "NoCap time", "paper", "NoCap traffic", "paper",
         "CPU time", "paper"],
        [(fam, f"{tf[fam]:.1%}", f"{PAPER_NOCAP_TIME[fam]:.1%}",
          f"{bf[fam]:.1%}", f"{PAPER_NOCAP_TRAFFIC[fam]:.1%}",
          f"{CPU_TIME_FRACTIONS[fam]:.1%}", f"{CPU_TIME_FRACTIONS[fam]:.1%}")
         for fam in families],
        "Fig. 6: runtime and memory-traffic breakdown by task (16M constraints)")
    table += (f"\ntotal traffic: {report.total_traffic_bytes / 1e9:.1f} GB"
              f"\ncompute utilization: {report.compute_utilization():.0%} (paper 60%)")
    table += "\n\n" + ascii_bar_chart(
        {fam: 100 * tf[fam] for fam in families},
        title="Fig. 6a, NoCap runtime share (%):", unit="%")
    table += "\n\n" + ascii_bar_chart(
        {fam: 100 * bf[fam] for fam in families},
        title="Fig. 6b, NoCap traffic share (%):", unit="%")
    emit("fig6_breakdown", table)

    for fam in families:
        assert abs(tf[fam] - PAPER_NOCAP_TIME[fam]) < 0.05, fam
        assert abs(bf[fam] - PAPER_NOCAP_TRAFFIC[fam]) < 0.05, fam
    assert abs(report.compute_utilization()
               - REFERENCE_COMPUTE_UTILIZATION) < 0.06
