"""Tests for the Fig. 7 sensitivity study and Fig. 8 design-space sweep."""

import pytest

from repro.nocap import (
    DEFAULT_CONFIG,
    NoCapConfig,
    design_space_sweep,
    gmean_prover_seconds,
    pareto_frontier,
    sensitivity_sweep,
)
from repro.nocap.area import area_model
from repro.nocap.constants import AREA_TOTAL
from repro.nocap.designspace import DesignPoint

SIZES = [16_000_000, 98_000_000]  # subset for speed; full suite in benches


class TestSensitivity:
    @pytest.fixture(scope="class")
    def points(self):
        return sensitivity_sweep(factors=(0.25, 0.5, 1.0, 2.0, 4.0),
                                 workload_sizes=SIZES)

    def _perf(self, points, resource):
        return {p.factor: p.relative_performance
                for p in points if p.resource == resource}

    def test_baseline_factor_is_unity(self, points):
        for resource in ("arith", "hash", "ntt", "hbm", "rf"):
            assert self._perf(points, resource)[1.0] == pytest.approx(1.0)

    def test_monotonic_in_every_resource(self, points):
        for resource in ("arith", "hash", "ntt", "hbm", "rf"):
            perf = self._perf(points, resource)
            factors = sorted(perf)
            for lo, hi in zip(factors, factors[1:]):
                assert perf[lo] <= perf[hi] + 1e-9, resource

    def test_arith_most_sensitive(self, points):
        """Fig. 7: performance is most sensitive to arithmetic throughput."""
        down = {r: self._perf(points, r)[0.25] for r in
                ("arith", "hash", "ntt", "hbm", "rf")}
        assert down["arith"] == min(down.values())
        up = {r: self._perf(points, r)[4.0] for r in
              ("arith", "hash", "ntt", "hbm", "rf")}
        assert up["arith"] == max(up.values())

    def test_balanced_design_point(self, points):
        """Fig. 7: scaling any one block up brings small benefit; scaling
        any one down degrades quickly."""
        for resource in ("arith", "hash", "ntt", "hbm", "rf"):
            perf = self._perf(points, resource)
            assert perf[4.0] < 1.6, resource      # small upside
            assert perf[0.25] < 0.95, resource    # real downside

    def test_rf_asymmetry(self, points):
        """Fig. 7: growing the RF is negligible; shrinking it is drastic."""
        perf = self._perf(points, "rf")
        assert perf[4.0] < 1.05
        assert perf[0.25] < 0.65

    def test_hash_fu_sized_to_bandwidth(self, points):
        """The 128-lane hash FU matches HBM bandwidth, so more lanes do
        not help (Sec. IV-B)."""
        perf = self._perf(points, "hash")
        assert perf[4.0] < 1.02


class TestDesignSpace:
    @pytest.fixture(scope="class")
    def sweep(self):
        return design_space_sweep(hbm_bytes_per_s=1e12,
                                  arith_factors=(0.5, 1.0, 2.0),
                                  ntt_factors=(0.5, 1.0),
                                  hash_factors=(1.0,),
                                  rf_factors=(0.5, 1.0),
                                  workload_sizes=SIZES)

    def test_sweep_size(self, sweep):
        assert len(sweep) == 3 * 2 * 1 * 2

    def test_pareto_subset_and_sorted(self, sweep):
        frontier = pareto_frontier(sweep)
        assert frontier
        assert all(p in sweep for p in frontier)
        areas = [p.area_mm2 for p in frontier]
        assert areas == sorted(areas)
        times = [p.gmean_seconds for p in frontier]
        assert times == sorted(times, reverse=True)

    def test_no_frontier_point_dominated(self, sweep):
        frontier = pareto_frontier(sweep)
        for p in frontier:
            for q in sweep:
                dominates = (q.area_mm2 <= p.area_mm2
                             and q.gmean_seconds < p.gmean_seconds)
                assert not dominates

    def test_chosen_config_near_frontier(self, sweep):
        """Fig. 8: the paper's configuration is a good area-performance
        tradeoff — no swept point beats it in both axes."""
        chosen_area = area_model(DEFAULT_CONFIG).total
        chosen_time = gmean_prover_seconds(DEFAULT_CONFIG, SIZES)
        for p in sweep:
            assert not (p.area_mm2 < chosen_area * 0.99
                        and p.gmean_seconds < chosen_time * 0.99)

    def test_2tb_bandwidth_frontier_dominates(self):
        """Fig. 8: the 2 TB/s frontier reaches higher performance."""
        one = design_space_sweep(hbm_bytes_per_s=1e12,
                                 arith_factors=(1.0, 2.0),
                                 ntt_factors=(1.0,), hash_factors=(1.0,),
                                 rf_factors=(1.0,), workload_sizes=SIZES)
        two = design_space_sweep(hbm_bytes_per_s=2e12,
                                 arith_factors=(1.0, 2.0),
                                 ntt_factors=(1.0,), hash_factors=(1.0,),
                                 rf_factors=(1.0,), workload_sizes=SIZES)
        assert min(p.gmean_seconds for p in two) < min(
            p.gmean_seconds for p in one)

    def test_performance_property(self):
        p = DesignPoint(config=DEFAULT_CONFIG, area_mm2=AREA_TOTAL,
                        gmean_seconds=0.5)
        assert p.performance == pytest.approx(2.0)
