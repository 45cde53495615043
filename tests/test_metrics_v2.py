"""Tests for Metrics v2: latency histograms, the OpenMetrics exposition
round-trip, the flight recorder, per-job reports, and the bench_diff
perf-regression gate."""

from __future__ import annotations

import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.errors import ProverTimeoutError
from repro.obs import FLIGHT, METRICS
from repro.obs.events import (
    FlightRecorder,
    JobReport,
    format_events,
    read_spool,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Histogram,
    MetricsRegistry,
    labels_key,
    render_hist_key,
)
from repro.obs.openmetrics import parse, render, sanitize_name, write_openmetrics
from repro.parallel import ProverPool
from repro.snark import TEST, prove, prove_many, setup, verify
from repro.workloads import synthetic_r1cs

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends on the no-op path with empty state."""
    obs.set_tracer(None)
    METRICS.enabled = False
    METRICS.reset()
    FLIGHT.enabled = True
    FLIGHT.clear()
    FLIGHT.spool_to(None)
    yield
    obs.set_tracer(None)
    METRICS.enabled = False
    METRICS.reset()
    FLIGHT.enabled = True
    FLIGHT.clear()
    FLIGHT.spool_to(None)


@pytest.fixture(scope="module")
def workload():
    r1cs, public, witness = synthetic_r1cs(log_size=8, seed=3)
    pk, vk = setup(r1cs, TEST)
    return pk, vk, public, witness


class TestHistogram:
    def test_le_bucket_semantics(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0):
            hist.observe(v)
        # le semantics: a value equal to a bound lands in that bucket.
        assert hist.counts == [2, 2, 2, 1]  # (..1], (1..2], (2..4], +Inf
        assert hist.count == 7
        assert hist.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 3.0
                                         + 4.0 + 100.0)

    def test_cumulative_ends_at_total_count(self):
        hist = Histogram(bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            hist.observe(v)
        cum = hist.cumulative()
        assert cum == [(1.0, 1), (2.0, 2), (math.inf, 3)]

    def test_nan_dropped(self):
        hist = Histogram()
        hist.observe(float("nan"))
        assert hist.count == 0 and hist.sum == 0.0

    def test_default_bounds_cover_latency_range(self):
        assert DEFAULT_LATENCY_BOUNDS[0] == pytest.approx(1e-5)
        assert DEFAULT_LATENCY_BOUNDS[-1] == pytest.approx(1000.0)
        assert list(DEFAULT_LATENCY_BOUNDS) == sorted(DEFAULT_LATENCY_BOUNDS)

    def test_merge_adds_bucketwise(self):
        a, b = Histogram(bounds=(1.0, 2.0)), Histogram(bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(10.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.sum == pytest.approx(12.0)

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError, match="different bucket bounds"):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_quantile_upper_bound_semantics(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 1.5, 3.0):
            hist.observe(v)
        assert hist.quantile(0.5) == 1.0   # 2nd of 4 obs is in le=1.0
        assert hist.quantile(1.0) == 4.0
        assert Histogram().quantile(0.5) == 0.0  # empty
        hist.observe(999.0)
        assert hist.quantile(1.0) == math.inf  # overflow bucket

    def test_dict_roundtrip_and_validation(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(1.5)
        clone = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        assert clone.sum == hist.sum
        bad = hist.to_dict()
        bad["counts"] = [1]  # wrong arity for the bounds
        with pytest.raises(ValueError):
            Histogram.from_dict(bad)
        bad = hist.to_dict()
        bad["counts"] = [-1, 0, 0]
        with pytest.raises(ValueError):
            Histogram.from_dict(bad)


class TestRegistryHistograms:
    def test_observe_disabled_is_noop(self):
        METRICS.observe("prove_seconds", 1.0)
        assert METRICS.histograms() == {}

    def test_observe_with_labels_separates_series(self):
        reg = MetricsRegistry()
        reg.enabled = True
        reg.observe("phase_seconds", 0.1, family="merkle")
        reg.observe("phase_seconds", 0.2, family="merkle")
        reg.observe("phase_seconds", 0.9, family="spmv")
        merkle = reg.histogram("phase_seconds", family="merkle")
        spmv = reg.histogram("phase_seconds", family="spmv")
        assert merkle.count == 2 and spmv.count == 1
        assert reg.histogram("phase_seconds") is None  # unlabeled distinct

    def test_merge_histogram_wire_form(self):
        worker = MetricsRegistry()
        worker.enabled = True
        worker.observe("prove_seconds", 0.5)
        parent = MetricsRegistry()
        parent.enabled = True
        parent.observe("prove_seconds", 0.1)
        for (name, labels), hist in worker.histograms().items():
            parent.merge_histogram(name, labels, hist.to_dict())
        merged = parent.histogram("prove_seconds")
        assert merged.count == 2
        assert merged.sum == pytest.approx(0.6)

    def test_snapshot_render_key(self):
        assert render_hist_key("h", ()) == "h"
        assert render_hist_key("h", (("family", "spmv"),)) \
            == 'h{family="spmv"}'
        assert labels_key({"b": 1, "a": "x"}) == (("a", "x"), ("b", "1"))


class TestOpenMetrics:
    def _populated(self):
        reg = MetricsRegistry()
        reg.enabled = True
        reg.inc("merkle.hashes", 1023)
        reg.gauge("process.peak_rss_bytes", 1 << 20)
        reg.observe("prove_seconds", 0.05)
        reg.observe("prove_seconds", 0.2)
        reg.observe("phase_seconds", 0.01, family="merkle")
        reg.observe("phase_seconds", 0.04, family="spmv")
        return reg

    def test_empty_registry_renders_eof_only(self):
        text = render(MetricsRegistry())
        assert text == "# EOF\n"
        assert parse(text) == {}

    def test_roundtrip_through_strict_parser(self):
        text = render(self._populated())
        metrics = parse(text)
        assert metrics["repro_merkle_hashes"]["type"] == "counter"
        hist = metrics["repro_prove_seconds"]
        assert hist["type"] == "histogram"
        assert hist["samples"][("repro_prove_seconds_count", ())] == 2.0
        assert hist["samples"][("repro_prove_seconds_sum", ())] \
            == pytest.approx(0.25)
        # Labeled histogram series survive with their labels.
        phases = metrics["repro_phase_seconds"]
        fams = {dict(labels).get("family")
                for (sname, labels) in phases["samples"]
                if sname.endswith("_count")}
        assert fams == {"merkle", "spmv"}

    def test_write_openmetrics_file(self, tmp_path):
        out = tmp_path / "metrics.prom"
        write_openmetrics(out, self._populated())
        text = out.read_text()
        assert text.endswith("# EOF\n")
        parse(text)

    def test_sanitize_name(self):
        assert sanitize_name("field.mul_batches") == "field_mul_batches"
        assert sanitize_name("9weird name!") == "_9weird_name_"

    def test_deterministic_output(self):
        reg = self._populated()
        assert render(reg) == render(reg)

    @pytest.mark.parametrize("mutate, msg", [
        (lambda t: t.replace("# EOF\n", ""), "EOF"),
        (lambda t: t.rstrip("\n"), "newline"),
        (lambda t: t.replace("# EOF", "x_no_type 1\n# EOF"), "TYPE"),
        (lambda t: "\n" + t, "blank"),
    ])
    def test_parser_rejects_structural_corruption(self, mutate, msg):
        text = render(self._populated())
        with pytest.raises(ValueError):
            parse(mutate(text))

    def test_parser_rejects_noncumulative_buckets(self):
        text = ('# TYPE h histogram\n'
                'h_bucket{le="1.0"} 5\n'
                'h_bucket{le="+Inf"} 3\n'
                'h_count 3\n'
                'h_sum 1.0\n'
                '# EOF\n')
        with pytest.raises(ValueError, match="cumulative"):
            parse(text)

    def test_parser_rejects_inf_count_mismatch(self):
        text = ('# TYPE h histogram\n'
                'h_bucket{le="+Inf"} 3\n'
                'h_count 4\n'
                'h_sum 1.0\n'
                '# EOF\n')
        with pytest.raises(ValueError):
            parse(text)

    def test_parser_rejects_duplicate_series(self):
        text = ('# TYPE c counter\n'
                'c_total 1\n'
                'c_total 2\n'
                '# EOF\n')
        with pytest.raises(ValueError, match="duplicate"):
            parse(text)

    def test_parser_rejects_negative_counter(self):
        text = ('# TYPE c counter\n'
                'c_total -1\n'
                '# EOF\n')
        with pytest.raises(ValueError):
            parse(text)


class TestFlightRecorder:
    def test_ring_is_bounded_and_seq_monotonic(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("worker_restart", attempt=i)
        events = rec.events()
        assert len(events) == 4
        assert [e.data["attempt"] for e in events] == [6, 7, 8, 9]
        assert rec.seq == 10  # sequence numbers never reused

    def test_disabled_records_nothing(self):
        rec = FlightRecorder()
        rec.enabled = False
        assert rec.record("worker_restart") is None
        assert rec.record_job(JobReport(job_id="x", op="prove")) is None
        assert rec.events() == []

    def test_fault_deltas_are_per_window(self):
        rec = FlightRecorder()
        rec.record("degradation", kernel="encode")
        seq0 = rec.seq
        rec.record("worker_restart", attempt=1)
        rec.record("worker_restart", attempt=2)
        rec.record_job(JobReport(job_id="j", op="prove"))  # not a fault
        # Only events inside the window; "job" records never count.
        assert rec.fault_deltas(seq0) == {"worker_restart": 2}
        assert rec.fault_deltas(rec.seq) == {}

    def test_job_reports_roundtrip(self):
        rec = FlightRecorder()
        rec.record_job(JobReport(job_id="a-1", op="prove", preset="test-fast",
                                 workers=2, dispatch="pool",
                                 proof_size_bytes=123, ok=True,
                                 events={"worker_restart": 1}))
        reports = rec.job_reports()
        assert len(reports) == 1
        assert reports[0].job_id == "a-1"
        assert reports[0].dispatch == "pool"
        assert reports[0].events == {"worker_restart": 1}

    def test_spool_and_read_back_with_torn_line(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(spool_path=str(path))
        rec.record("worker_restart", attempt=1)
        rec.record("timeout", label="x")
        with open(path, "a") as fh:
            fh.write('{"torn": ')  # simulated crash mid-append
        events = read_spool(str(path))
        assert [e["kind"] for e in events] == ["worker_restart", "timeout"]
        assert read_spool(str(path), last=1)[0]["kind"] == "timeout"

    def test_broken_spool_never_raises(self, tmp_path):
        rec = FlightRecorder(spool_path=str(tmp_path / "nodir" / "f.jsonl"))
        assert rec.record("timeout") is not None  # ring keeps the record

    def test_next_job_id_unique(self):
        rec = FlightRecorder()
        ids = {rec.next_job_id() for _ in range(5)}
        assert len(ids) == 5

    def test_format_events_renders_jobs_and_incidents(self):
        rec = FlightRecorder()
        rec.record_job(JobReport(job_id="p-1", op="prove", ok=True,
                                 events={"worker_restart": 2}))
        rec.record("dispatch_stall", pending=3)
        text = format_events([e.to_dict() for e in rec.events()])
        assert "p-1" in text and "worker_restart:2" in text
        assert "dispatch_stall" in text and "pending=3" in text


class TestProveTelemetry:
    def test_prove_observes_latency_and_phases(self, workload):
        pk, vk, public, witness = workload
        with obs.tracing():
            t0 = time.perf_counter()
            bundle = prove(pk, public, witness, seed=1)
            wall = time.perf_counter() - t0
            assert verify(vk, bundle)
        hist = METRICS.histogram("prove_seconds")
        assert hist is not None and hist.count == 1
        assert 0 < hist.sum <= wall
        assert METRICS.histogram("verify_seconds").count == 1
        phase_keys = [key for key in METRICS.histograms()
                      if key[0] == "phase_seconds"]
        assert phase_keys  # per-family attribution was recorded

    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_prove_many_count_matches_jobs(self, workload, workers):
        pk, _, public, witness = workload
        jobs = [(public, witness)] * 3
        METRICS.enabled = True
        pool = ProverPool(workers=workers) if workers > 1 else None
        t0 = time.perf_counter()
        bundles = prove_many(pk, jobs, pool=pool, workers=workers,
                             base_seed=5)
        wall = time.perf_counter() - t0
        assert len(bundles) == 3
        hist = METRICS.histogram("prove_seconds")
        assert hist is not None
        # Exactly one observation per job at every worker count: workers
        # observe locally and ship their histograms to the parent.
        assert hist.count == 3
        assert hist.sum > 0
        if workers <= 1:
            assert hist.sum <= wall * 1.05
        if workers > 1:
            assert METRICS.histogram("dispatch_seconds") is not None

    def test_attach_report(self, workload):
        pk, _, public, witness = workload
        bundle = prove(pk, public, witness, seed=2, attach_report=True)
        report = bundle.report
        assert report is not None and report.ok
        assert report.op == "prove"
        assert report.proof_size_bytes == bundle.size_bytes()
        assert report.dispatch == "serial"
        assert report.events == {}
        # The report is diagnostic state, never part of the wire format.
        assert b"job_id" not in bundle.to_bytes()

    def test_flight_recorder_gets_job_records(self, workload):
        pk, _, public, witness = workload
        seq0 = FLIGHT.seq
        prove(pk, public, witness, seed=3)
        prove_many(pk, [(public, witness)] * 2, workers=0, base_seed=9)
        kinds = [e.kind for e in FLIGHT.since(seq0)]
        # prove_many spawns per-job prove records plus one batch record.
        assert kinds.count("job") == 4
        batch = [e for e in FLIGHT.since(seq0)
                 if e.data.get("op") == "prove_many"]
        assert len(batch) == 1 and batch[0].data["jobs"] == 2

    def test_successive_batches_do_not_inherit_events(self, workload):
        """Satellite regression test: job reports carry per-window deltas,
        so incidents recorded before a batch never leak into its report."""
        pk, _, public, witness = workload
        FLIGHT.record("degradation", kernel="stale")
        b1 = prove_many(pk, [(public, witness)], workers=0, base_seed=1,
                        attach_report=True)
        assert b1[0].report.events == {}
        FLIGHT.record("worker_restart", attempt=1)  # incident between batches
        b2 = prove_many(pk, [(public, witness)], workers=0, base_seed=2,
                        attach_report=True)
        assert b2[0].report.events == {}

    def test_timeout_leaves_flight_trail(self, workload):
        pk, _, public, witness = workload
        seq0 = FLIGHT.seq
        with pytest.raises(ProverTimeoutError):
            prove(pk, public, witness, seed=1, timeout_s=1e-5)
        deltas = FLIGHT.fault_deltas(seq0)
        assert deltas.get("timeout", 0) >= 1
        failed = [e for e in FLIGHT.since(seq0)
                  if e.kind == "job" and not e.data["ok"]]
        assert len(failed) == 1
        assert failed[0].data["error"] == "ProverTimeoutError"

    def test_telemetry_does_not_perturb_proof_bytes(self, workload):
        pk, _, public, witness = workload
        plain = prove(pk, public, witness, seed=11).to_bytes()
        with obs.tracing():
            traced = prove(pk, public, witness, seed=11,
                           attach_report=True).to_bytes()
        assert plain == traced


def _load_bench_diff():
    spec = importlib.util.spec_from_file_location(
        "bench_diff", REPO_ROOT / "tools" / "bench_diff.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _payload(prove_s=1.0, verify_s=0.5, size=1000, noop=0.001):
    return {"results": [{
        "log_size": 10, "prove_s": prove_s, "verify_s": verify_s,
        "proof_size_bytes": size, "peak_rss_bytes": 1 << 20,
        "instrumentation": {"noop_overhead_frac": noop},
    }]}


class TestBenchDiff:
    def test_identical_runs_pass(self):
        bd = _load_bench_diff()
        findings = bd.compare_prover(_payload(), _payload(), calibrate=False)
        assert not [f for f in findings if f["regression"]]

    def test_inflated_current_trips_gate(self):
        bd = _load_bench_diff()
        findings = bd.compare_prover(_payload(prove_s=1.0),
                                     _payload(prove_s=1.26),
                                     calibrate=False)
        bad = [f for f in findings if f["regression"]]
        assert bad and bad[0]["metric"] == "prove_s"

    def test_improvement_passes(self):
        bd = _load_bench_diff()
        findings = bd.compare_prover(_payload(prove_s=1.0),
                                     _payload(prove_s=0.5),
                                     calibrate=False)
        assert not [f for f in findings if f["regression"]]

    def test_proof_size_is_exact(self):
        bd = _load_bench_diff()
        findings = bd.compare_prover(_payload(size=1000), _payload(size=1001),
                                     calibrate=False)
        bad = [f for f in findings if f["regression"]]
        assert bad and bad[0]["metric"] == "proof_size_bytes"

    def test_noop_overhead_absolute_ceiling(self):
        bd = _load_bench_diff()
        findings = bd.compare_prover(_payload(), _payload(noop=0.03),
                                     calibrate=False)
        bad = [f for f in findings if f["regression"]]
        assert bad and bad[0]["metric"] == "noop_overhead_frac"

    def test_growth_per_doubling_gate(self):
        bd = _load_bench_diff()

        def sweep(growth_at_20):
            return {"results": [
                {"log_size": s, "prove_s": 1.0, "verify_s": 0.5,
                 "proof_size_bytes": 10, "growth_per_doubling": g}
                for s, g in ((12, 3.0), (19, 2.1), (20, growth_at_20))]}

        # 2^11 -> 2^12 is outside the gated range, whatever it reads.
        smooth = bd.compare_prover(sweep(2.3), sweep(2.3), calibrate=True)
        assert not [f for f in smooth if f["regression"]]
        cliff = bd.compare_prover(sweep(2.3), sweep(2.73), calibrate=True)
        bad = [f for f in cliff if f["regression"]]
        assert [(f["metric"], f["log_size"]) for f in bad] \
            == [("growth_per_doubling", 20)]

    def test_calibration_forgives_uniformly_slow_machine(self):
        bd = _load_bench_diff()
        base = {"results": [
            {"log_size": s, "prove_s": 1.0 * s, "verify_s": 0.5,
             "proof_size_bytes": 10} for s in (10, 11, 12)]}
        # 3x slower across the board: shape is unchanged.
        cur = {"results": [
            {"log_size": s, "prove_s": 3.0 * s, "verify_s": 1.5,
             "proof_size_bytes": 10} for s in (10, 11, 12)]}
        raw = bd.compare_prover(base, cur, calibrate=False)
        assert [f for f in raw if f["regression"]]
        calibrated = bd.compare_prover(base, cur, calibrate=True)
        assert not [f for f in calibrated if f["regression"]]

    def test_faults_scenario_and_recovery_regressions(self):
        bd = _load_bench_diff()
        base = {"scenarios": [{"scenario": "worker_kill", "ok": True}],
                "recovery_overhead": {"overhead_ratio": 1.2}}
        good = {"scenarios": [{"scenario": "worker_kill", "ok": True}],
                "recovery_overhead": {"overhead_ratio": 1.3}}
        assert not [f for f in bd.compare_faults(base, good)
                    if f["regression"]]
        bad = {"scenarios": [{"scenario": "worker_kill", "ok": False}],
               "recovery_overhead": {"overhead_ratio": 5.0}}
        findings = bd.compare_faults(base, bad)
        assert {f["metric"] for f in findings if f["regression"]} \
            == {"scenario", "recovery_overhead"}

    def test_missing_scenario_in_quick_run_is_not_failure(self):
        bd = _load_bench_diff()
        base = {"scenarios": [{"scenario": "full_only", "ok": True}],
                "recovery_overhead": None}
        assert bd.compare_faults(base, {"scenarios": []}) == []

    def test_main_exit_codes(self, tmp_path):
        bd = _load_bench_diff()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(_payload()))
        cur.write_text(json.dumps(_payload()))
        assert bd.main(["--current", str(cur), "--baseline", str(base)]) == 0
        cur.write_text(json.dumps(_payload(prove_s=2.0)))
        report = tmp_path / "diff.json"
        assert bd.main(["--current", str(cur), "--baseline", str(base),
                        "--report", str(report)]) == 1
        assert json.loads(report.read_text())["regressions"] >= 1

    def test_committed_baseline_is_self_consistent(self):
        """The gate must exit 0 when a baseline is diffed against itself —
        the invariant CI relies on after every baseline refresh."""
        bd = _load_bench_diff()
        payload = json.loads((REPO_ROOT / "BENCH_prover.json").read_text())
        findings = bd.compare_prover(payload, payload, calibrate=True)
        assert not [f for f in findings if f["regression"]]


class TestCLI:
    def test_metrics_out_and_report(self, tmp_path, capsys):
        from repro.cli import main
        prom = tmp_path / "metrics.prom"
        flight = tmp_path / "flight.jsonl"
        rc = main(["prove", "litmus", "--metrics-out", str(prom),
                   "--flight-log", str(flight)])
        assert rc == 0
        metrics = parse(prom.read_text())
        assert "repro_prove_seconds" in metrics
        assert "repro_verify_seconds" in metrics
        capsys.readouterr()
        assert main(["report", "--log", str(flight)]) == 0
        out = capsys.readouterr().out
        assert "prove" in out and "litmus" in out

    def test_metrics_command_renders_registry(self, capsys):
        from repro.cli import main
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")

    def test_report_empty_ring(self, capsys):
        from repro.cli import main
        FLIGHT.clear()
        assert main(["report"]) == 0
