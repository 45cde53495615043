"""Tests for the NoCap task model, simulator, area, and power models —
including reproduction checks against the paper's reported numbers."""

import math

import pytest

from repro.nocap import (
    DEFAULT_CONFIG,
    NoCapConfig,
    NoCapSimulator,
    area_model,
    build_prover_tasks,
    power_model,
    prover_seconds,
)
from repro.nocap.constants import (
    AREA_TOTAL,
    REFERENCE_COMPUTE_UTILIZATION,
    REFERENCE_LOG_N,
    REFERENCE_TRAFFIC_FRACTIONS,
)
from repro.nocap.tasks import ntt_passes, sumcheck_tasks
from repro.workloads.spec import PAPER_WORKLOADS


class TestConfig:
    def test_defaults_match_paper(self):
        c = DEFAULT_CONFIG
        assert c.frequency_hz == 1e9
        assert c.mul_lanes == 2048 and c.add_lanes == 2048
        assert c.hash_lanes == 128 and c.shuffle_lanes == 128
        assert c.ntt_lanes == 64
        assert c.register_file_bytes == 8 << 20
        assert c.hbm_bytes_per_s == 1e12
        assert c.ntt_base_size == 1 << 12

    def test_scale(self):
        c = DEFAULT_CONFIG.scale(arith=2.0, hbm=0.5, rf=2.0)
        assert c.mul_lanes == 4096 and c.add_lanes == 4096
        assert c.hbm_bytes_per_s == 5e11
        assert c.register_file_bytes == 16 << 20

    def test_scale_unknown_resource(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.scale(gpu=2.0)


class TestTasks:
    def test_families_present(self):
        tasks = build_prover_tasks(1 << 24, DEFAULT_CONFIG)
        families = {t.family for t in tasks}
        assert families == {"sumcheck", "polyarith", "rs_encode", "merkle",
                            "spmv", "other"}

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            build_prover_tasks(1000, DEFAULT_CONFIG)

    def test_repetitions_scale_sumcheck(self):
        one = sumcheck_tasks(1 << 20, DEFAULT_CONFIG, repetitions=1)
        three = sumcheck_tasks(1 << 20, DEFAULT_CONFIG, repetitions=3)
        assert len(three) == 3 * len(one)

    def test_ntt_passes(self):
        assert ntt_passes(1 << 12, 1 << 12) == 1
        assert ntt_passes(1 << 13, 1 << 12) == 2
        assert ntt_passes(1 << 24, 1 << 12) == 2
        assert ntt_passes(1 << 25, 1 << 12) == 3
        assert ntt_passes(1, 1 << 12) == 1

    def test_recompute_reduces_traffic(self):
        on = sumcheck_tasks(1 << 24, DEFAULT_CONFIG, recompute=True)
        off = sumcheck_tasks(1 << 24, DEFAULT_CONFIG, recompute=False)
        assert sum(t.mem_bytes for t in on) < sum(t.mem_bytes for t in off)

    def test_small_instances_fit_on_chip(self):
        """Below the register-file size, sumchecks need no HBM streaming."""
        tasks = sumcheck_tasks(1 << 12, DEFAULT_CONFIG, repetitions=1)
        assert all(t.mem_bytes == 0 for t in tasks)

    def test_task_time_is_max_of_resources(self):
        tasks = build_prover_tasks(1 << 22, DEFAULT_CONFIG)
        for t in tasks:
            compute = max(t.compute_cycles(DEFAULT_CONFIG).values()) / 1e9
            memory = t.mem_bytes / 1e12
            assert t.time_seconds(DEFAULT_CONFIG) == pytest.approx(
                max(compute, memory))


class TestSimulatorCalibration:
    """Reproduction checks against Table IV and Fig. 6."""

    @pytest.fixture(scope="class")
    def ref(self):
        return NoCapSimulator().simulate(1 << REFERENCE_LOG_N)

    def test_reference_total(self, ref):
        # Table IV AES row: 151.3 ms (model within 5%).
        assert ref.total_seconds == pytest.approx(0.1513, rel=0.05)

    def test_fig6a_time_fractions(self, ref):
        frac = ref.time_fractions()
        assert frac["sumcheck"] == pytest.approx(0.70, abs=0.05)
        assert frac["polyarith"] == pytest.approx(0.12, abs=0.03)
        assert frac["rs_encode"] == pytest.approx(0.09, abs=0.03)
        assert frac["merkle"] == pytest.approx(0.05, abs=0.02)
        assert frac["spmv"] == pytest.approx(0.005, abs=0.005)

    def test_fig6b_traffic_fractions(self, ref):
        frac, paper = ref.traffic_fractions(), REFERENCE_TRAFFIC_FRACTIONS
        for fam, tol in (("sumcheck", 0.05), ("polyarith", 0.05),
                         ("merkle", 0.03), ("rs_encode", 0.04)):
            assert frac[fam] == pytest.approx(paper[fam], abs=tol), fam

    def test_fig6_compute_utilization(self, ref):
        # "Overall utilization of compute resources is 60%".
        assert ref.compute_utilization() == pytest.approx(
            REFERENCE_COMPUTE_UTILIZATION, abs=0.06)

    def test_table4_proving_times(self):
        for w in PAPER_WORKLOADS:
            t = prover_seconds(w.raw_constraints)
            assert t == pytest.approx(w.paper_nocap_s, rel=0.10), w.name

    def test_table4_speedups_vs_cpu(self):
        from repro.baselines import DEFAULT_CPU

        speedups = []
        for w in PAPER_WORKLOADS:
            s = DEFAULT_CPU.prover_seconds(w.raw_constraints) / prover_seconds(
                w.raw_constraints)
            paper = w.paper_cpu_s / w.paper_nocap_s
            assert s == pytest.approx(paper, rel=0.10), w.name
            speedups.append(s)
        gmean = math.exp(sum(math.log(x) for x in speedups) / len(speedups))
        assert gmean == pytest.approx(586, rel=0.05)

    def test_table4_speedups_vs_pipezk(self):
        from repro.baselines import PipeZkModel

        pz = PipeZkModel()
        speedups = [pz.prover_seconds(w.raw_constraints)
                    / prover_seconds(w.raw_constraints)
                    for w in PAPER_WORKLOADS]
        gmean = math.exp(sum(math.log(x) for x in speedups) / len(speedups))
        assert gmean == pytest.approx(41, rel=0.10)

    def test_scaling_superlinear_but_mild(self):
        """NoCap time grows slightly faster than linearly in padded N
        (log-dependent spill rounds), matching Table IV's trend of slowly
        decreasing speedups."""
        sim = NoCapSimulator()
        t24 = sim.simulate(1 << 24).total_seconds
        t28 = sim.simulate(1 << 28).total_seconds
        ratio = t28 / t24
        assert 16.0 < ratio < 19.5

    def test_recompute_ablation(self):
        """Sec. VIII-C: recomputation improves NoCap by ~1.1x and cuts
        sumcheck traffic by ~31%."""
        sim = NoCapSimulator()
        on = sim.simulate(1 << 24)
        off = sim.simulate(1 << 24, recompute=False)
        gain = off.total_seconds / on.total_seconds
        assert gain == pytest.approx(1.10, abs=0.04)
        cut = 1 - (on.traffic_by_family["sumcheck"]
                   / off.traffic_by_family["sumcheck"])
        assert cut == pytest.approx(0.31, abs=0.05)

    def test_memory_bandwidth_never_exceeded(self, ref):
        assert ref.memory_utilization() <= 1.0


class TestArea:
    def test_table2_reproduced(self):
        a = area_model()
        assert a.ntt_fu == pytest.approx(1.80)
        assert a.mul_fu == pytest.approx(6.34)
        assert a.add_fu == pytest.approx(0.96)
        assert a.hash_fu == pytest.approx(0.84)
        assert a.total_compute == pytest.approx(9.95, abs=0.02)
        assert a.register_file == pytest.approx(6.01)
        assert a.benes == pytest.approx(0.11)
        assert a.memory_phy == pytest.approx(29.80)
        assert a.total_memory_system == pytest.approx(35.92)
        assert a.total == pytest.approx(AREA_TOTAL, abs=0.02)

    def test_area_scales_with_lanes(self):
        a = area_model(DEFAULT_CONFIG.scale(arith=2.0))
        assert a.mul_fu == pytest.approx(2 * 6.34)
        assert a.add_fu == pytest.approx(2 * 0.96)

    def test_area_scales_with_bandwidth(self):
        a = area_model(DEFAULT_CONFIG.scale(hbm=2.0))
        assert a.memory_phy == pytest.approx(2 * 29.80)

    def test_as_table_keys(self):
        table = area_model().as_table()
        assert "Total NoCap" in table and "Total Compute" in table


class TestPower:
    def test_fig5_reference(self):
        rep = NoCapSimulator().simulate(1 << 24)
        p = power_model(rep)
        assert p.total_watts == pytest.approx(62.0, rel=0.02)
        frac = p.fractions()
        assert frac["FUs"] == pytest.approx(0.13, abs=0.02)
        assert frac["Register file"] == pytest.approx(0.44, abs=0.02)
        assert frac["HBM"] == pytest.approx(0.42, abs=0.02)

    def test_breakdown_stable_across_benchmarks(self):
        """Sec. VIII-B: breakdown and total power essentially identical
        across benchmarks."""
        sim = NoCapSimulator()
        totals = []
        for log_n in (24, 26, 28, 30):
            p = power_model(sim.simulate(1 << log_n))
            totals.append(p.total_watts)
            assert p.fractions()["HBM"] == pytest.approx(0.42, abs=0.06)
        assert max(totals) / min(totals) < 1.1

    def test_energy_constants_physical(self):
        from repro.nocap.power import ENERGY_PER_HBM_BYTE

        # HBM2E is a few pJ/bit; sanity-check the fitted constant.
        pj_per_bit = ENERGY_PER_HBM_BYTE * 1e12 / 8
        assert 2 < pj_per_bit < 12
