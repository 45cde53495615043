"""Invariant tests for the NoCap simulator: the model must respond to
configuration changes the way real hardware would, for *any* setting —
these guard the design-space sweeps against modeling artifacts."""

import pytest

from repro.nocap import DEFAULT_CONFIG, NoCapConfig, NoCapSimulator

N = 1 << 24


def _time(cfg: NoCapConfig, n: int = N) -> float:
    return NoCapSimulator(cfg).simulate(n).total_seconds


class TestMonotonicity:
    @pytest.mark.parametrize("resource", ["arith", "hash", "ntt", "hbm", "rf"])
    def test_more_of_any_resource_never_hurts(self, resource):
        times = [_time(DEFAULT_CONFIG.scale(**{resource: f}))
                 for f in (0.5, 1.0, 2.0, 4.0)]
        for slower, faster in zip(times[1:], times):
            assert slower <= faster * 1.0001, resource

    def test_time_increases_with_statement_size(self):
        sim = NoCapSimulator(DEFAULT_CONFIG)
        times = [sim.simulate(1 << log_n).total_seconds
                 for log_n in range(18, 31, 2)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_frequency_scaling(self):
        """Doubling the clock can at most double compute-bound speed and
        never increases time."""
        import dataclasses

        fast = dataclasses.replace(DEFAULT_CONFIG, frequency_hz=2e9)
        t_base = _time(DEFAULT_CONFIG)
        t_fast = _time(fast)
        assert t_base / 2 <= t_fast <= t_base

    def test_repetitions_scale_sumcheck_time(self):
        sim = NoCapSimulator(DEFAULT_CONFIG)
        one = sim.simulate(N, repetitions=1)
        three = sim.simulate(N, repetitions=3)
        assert three.time_by_family["sumcheck"] == pytest.approx(
            3 * one.time_by_family["sumcheck"], rel=0.01)
        # Commitment work is repetition-independent.
        assert three.time_by_family["rs_encode"] == pytest.approx(
            one.time_by_family["rs_encode"], rel=0.01)


class TestConservation:
    def test_family_times_sum_to_total(self):
        rep = NoCapSimulator(DEFAULT_CONFIG).simulate(N)
        assert sum(rep.time_by_family.values()) == pytest.approx(
            rep.total_seconds)

    def test_task_times_sum_to_total(self):
        rep = NoCapSimulator(DEFAULT_CONFIG).simulate(N)
        assert sum(t.seconds for t in rep.task_times) == pytest.approx(
            rep.total_seconds)

    def test_busy_cycles_bounded_by_makespan(self):
        rep = NoCapSimulator(DEFAULT_CONFIG).simulate(N)
        for unit, busy in rep.busy_cycles_by_unit.items():
            assert busy <= rep.total_cycles * 1.0001, unit

    def test_fractions_sum_to_one(self):
        rep = NoCapSimulator(DEFAULT_CONFIG).simulate(N)
        assert sum(rep.time_fractions().values()) == pytest.approx(1.0)
        assert sum(rep.traffic_fractions().values()) == pytest.approx(1.0)


class TestExtremes:
    def test_infinite_bandwidth_makes_compute_bound(self):
        huge_bw = DEFAULT_CONFIG.scale(hbm=1e6)
        rep = NoCapSimulator(huge_bw).simulate(N)
        # Only the PCIe host-ingest term (modeled as equivalent HBM time)
        # remains; real HBM demand vanishes.
        assert rep.memory_utilization() < 0.05
        # Time no longer responds to bandwidth.
        assert _time(huge_bw.scale(hbm=2.0)) == pytest.approx(
            rep.total_seconds)

    def test_tiny_bandwidth_memory_bound(self):
        starved = DEFAULT_CONFIG.scale(hbm=0.01)
        rep = NoCapSimulator(starved).simulate(N)
        assert rep.memory_utilization() > 0.5

    def test_tiny_statement_still_positive(self):
        rep = NoCapSimulator(DEFAULT_CONFIG).simulate(1 << 12)
        assert rep.total_seconds > 0
