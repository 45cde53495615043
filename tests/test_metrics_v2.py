"""Tests for the flight recorder, per-job reports (prove, prove_many,
verify) and the bench_diff perf-regression gate."""

from __future__ import annotations

import importlib.util
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.errors import ProverTimeoutError
from repro.obs import FLIGHT
from repro.obs.events import (
    FlightRecorder,
    JobReport,
    format_events,
    read_spool,
)
from repro.snark import (PAPER, TEST, ProofBundle, prove, prove_many, setup,
                         verify)
from repro.workloads import synthetic_r1cs

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with no trace open and no spool."""
    assert obs.get_tracer() is None
    FLIGHT.spool_to(None)
    yield
    FLIGHT.spool_to(None)
    assert obs.get_tracer() is None


@pytest.fixture(scope="module")
def workload():
    r1cs, public, witness = synthetic_r1cs(log_size=8, seed=3)
    pk, vk = setup(r1cs, TEST)
    return pk, vk, public, witness


@pytest.fixture
def spooled(tmp_path):
    """Spool the process-wide recorder to a fresh file; yields a reader
    of the records booked since."""
    path = str(tmp_path / "flight.jsonl")
    FLIGHT.spool_to(path)
    yield lambda: read_spool(path)
    FLIGHT.spool_to(None)


class TestFlightRecorder:
    def test_fault_deltas_are_per_window(self):
        rec = FlightRecorder()
        rec.record("degradation", kernel="encode")
        before = rec.incidents()
        rec.record("worker_restart", attempt=1)
        rec.record("worker_restart", attempt=2)
        with rec.job("prove", "p", "c"):  # a job is not an incident
            pass
        # Only incidents inside the window count.
        assert rec.fault_deltas(before) == {"worker_restart": 2}
        assert rec.fault_deltas(rec.incidents()) == {}
        assert rec.incidents() == {"degradation": 1, "worker_restart": 2}

    def test_incidents_in_one_window_are_counted_exactly(self):
        """However many incidents fire inside one job window, its report
        counts every one (a bounded ring of records capped the count)."""
        with FLIGHT.job("prove_many", "p", "c") as report:
            for _ in range(600):
                FLIGHT.record("task_error", error="ValueError")
        assert report.events == {"task_error": 600}

    def test_job_reports_roundtrip(self, tmp_path):
        """A ``job`` line's data is the report, field for field."""
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(spool_path=str(path))
        with rec.job("prove", "test-fast", "c1") as report:
            report.workers, report.dispatch = 2, "pool"
            report.proof_size_bytes = 123
            rec.record("worker_restart")
        (_, line) = read_spool(str(path))
        assert set(line) == {"kind", "ts", "data"} and line["kind"] == "job"
        assert JobReport(**line["data"]).to_dict() == report.to_dict()
        assert report.events == {"worker_restart": 1}

    def test_job_context_books_one_record(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(spool_path=str(path))
        rec.record("degradation")  # before the window: not this job's
        with rec.job("prove", "test-fast", "c1") as report:
            rec.record("worker_restart")
            report.proof_size_bytes = 7
        jobs = [e["data"] for e in read_spool(str(path))
                if e["kind"] == "job"]
        assert jobs == [report.to_dict()]
        assert report.ok and report.error == "" and report.duration_s > 0
        assert report.events == {"worker_restart": 1}
        assert (report.op, report.preset, report.circuit_id, report.jobs) \
            == ("prove", "test-fast", "c1", 1)

    def test_job_context_books_the_escaping_error(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(spool_path=str(path))
        with pytest.raises(KeyboardInterrupt):
            with rec.job("prove_many", "p", "c", jobs=3) as report:
                raise KeyboardInterrupt  # never swallowed, even BaseException
        (event,) = read_spool(str(path))
        assert event["data"]["ok"] is False
        assert event["data"]["error"] == "KeyboardInterrupt"
        assert event["data"]["jobs"] == 3 and not report.ok

    def test_job_takes_the_id_set_for_its_context(self):
        """A daemon job sets its submit id around its body: the first job
        opened there is booked under it, the jobs inside mint their own,
        and after the reset the recorder mints again."""
        from repro.obs.events import _JOB_ID
        rec = FlightRecorder()
        token = _JOB_ID.set("42-7")
        try:
            with rec.job("prove_many", "p", "c") as outer:
                with rec.job("prove", "p", "c") as inner:
                    pass
        finally:
            _JOB_ID.reset(token)
        with rec.job("verify", "p", "c") as after:
            pass
        assert outer.job_id == "42-7"
        assert len({outer.job_id, inner.job_id, after.job_id}) == 3

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

    @pytest.mark.parametrize("source", ["report", "spool"])
    @pytest.mark.parametrize("last, kept", [(2, ["b", "c"]), (0, []),
                                            (-1, [])])
    def test_last_agrees_across_ring_and_spool(self, tmp_path, capsys,
                                               source, last, kept):
        """``repro report --last N`` and ``read_spool`` agree: a
        non-positive N is no records, never the whole file."""
        from repro.cli import main
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(spool_path=str(path))
        for label in "abc":
            rec.record("timeout", label=label)
        if source == "spool":
            events = read_spool(str(path), last=last)
        else:
            assert main(["report", "--log", str(path), "--last", str(last),
                         "--json"]) == 0
            events = json.loads(capsys.readouterr().out)
        assert [e["data"]["label"] for e in events] == kept

    def test_broken_spool_never_raises(self, tmp_path):
        rec = FlightRecorder(spool_path=str(tmp_path / "nodir" / "f.jsonl"))
        rec.record("timeout")
        with rec.job("prove", "p", "c") as report:
            pass
        assert rec.incidents() == {"timeout": 1} and report.ok

    def test_next_job_id_unique(self):
        rec = FlightRecorder()
        ids = {rec.next_job_id() for _ in range(5)}
        assert len(ids) == 5

    def test_next_job_id_unique_across_threads(self):
        """The daemon mints a submit's id on that connection's thread, so
        ids minted on several threads at once must never repeat."""
        rec = FlightRecorder()
        minted = []

        def mint():
            minted.append([rec.next_job_id() for _ in range(20_000)])

        threads = [threading.Thread(target=mint) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = [job_id for batch in minted for job_id in batch]
        assert len(ids) == len(set(ids)) == 80_000

    def test_format_events_renders_jobs_and_incidents(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        rec = FlightRecorder(spool_path=str(path))
        with rec.job("prove", "p", "c") as report:
            rec.record("worker_restart")
            rec.record("worker_restart")
        rec.record("dispatch_stall", pending=3)
        text = format_events(read_spool(str(path)))
        assert report.job_id in text and "worker_restart:2" in text
        assert "dispatch_stall" in text and "pending=3" in text


class TestProveTelemetry:
    def test_prove_observes_latency_and_phases(self, workload):
        """A prove's latency is its JobReport's, its per-family breakdown
        the span tree's: each fact has one home."""
        pk, vk, public, witness = workload
        with obs.tracing() as tracer:
            t0 = time.perf_counter()
            bundle = prove(pk, public, witness, seed=1)
            wall = time.perf_counter() - t0
            assert verify(vk, bundle)
        assert 0 < bundle.report.duration_s <= wall
        assert tracer.family_seconds("snark.prove")

    @pytest.mark.parametrize("name", ["litmus", "sha", "synthetic-2p16"])
    def test_phase_time_closes_on_the_job_record(self, name):
        """Phase closure as a flight-record invariant: a traced PAPER
        prove's per-family span seconds account for its JobReport's
        duration (on a 2-CPU host: litmus 0.993-0.995, sha 0.997, 2^16
        0.999); what is left is the job window's own bookkeeping."""
        from repro.snark import PAPER
        from repro.workloads.registry import build_workload
        if name == "synthetic-2p16":
            r1cs, public, witness = synthetic_r1cs(16)
        else:
            r1cs, public, witness = build_workload(name)[1].compile()
        pk, _ = setup(r1cs, PAPER)
        with obs.tracing() as tracer:
            bundle = prove(pk, public, witness, seed=1, circuit_id=name)
        phases = sum(tracer.family_seconds("snark.prove").values())
        assert 0.95 <= phases / bundle.report.duration_s <= 1.0 + 1e-6

    def test_attach_report(self, workload, spooled):
        """Every bundle carries its report: the opt-in keyword is gone."""
        pk, _, public, witness = workload
        bundle = prove(pk, public, witness, seed=2)
        report = bundle.report
        assert report is not None and report.ok
        assert report.op == "prove"
        assert report.proof_size_bytes == bundle.size_bytes()
        assert report.dispatch == "serial"
        assert report.events == {}
        (record,) = spooled()
        assert record["data"] == report.to_dict()  # the one booked record
        # The report is diagnostic state, never part of the wire format.
        assert b"job_id" not in bundle.to_bytes()
        with pytest.raises(TypeError):
            prove(pk, public, witness, seed=2, attach_report=True)
        with pytest.raises(TypeError):
            prove_many(pk, [(public, witness)], workers=0,
                       attach_report=True)

    def test_flight_recorder_gets_job_records(self, workload, spooled):
        pk, _, public, witness = workload
        prove(pk, public, witness, seed=3)
        prove_many(pk, [(public, witness)] * 2, workers=0, base_seed=9)
        records = spooled()
        # prove_many spawns per-job prove records plus one batch record.
        assert [e["kind"] for e in records].count("job") == 4
        batch = [e for e in records if e["data"].get("op") == "prove_many"]
        assert len(batch) == 1 and batch[0]["data"]["jobs"] == 2

    def test_successive_batches_do_not_inherit_events(self, workload):
        """Satellite regression test: job reports carry per-window deltas,
        so incidents recorded before a batch never leak into its report."""
        pk, _, public, witness = workload
        FLIGHT.record("degradation", kernel="stale")
        b1 = prove_many(pk, [(public, witness)], workers=0, base_seed=1)
        assert b1[0].report.events == {}
        FLIGHT.record("worker_restart", attempt=1)  # incident between batches
        b2 = prove_many(pk, [(public, witness)], workers=0, base_seed=2)
        assert b2[0].report.events == {}

    def test_failed_batch_job_is_booked_once(self, workload, spooled):
        """A serial 2-job batch whose budget is spent raises at its first
        job: that failure is booked by its ``prove`` alone, plus one
        batch record naming it, and the second job is never proved."""
        pk, _, public, witness = workload
        with pytest.raises(ProverTimeoutError):
            prove_many(pk, [(public, witness)] * 2, workers=0,
                       base_seed=5, timeout_s=1e-6)
        jobs = [e["data"] for e in spooled() if e["kind"] == "job"]
        assert [(j["op"], j["ok"], j["error"]) for j in jobs] == [
            ("prove", False, "ProverTimeoutError"),
            ("prove_many", False, "ProverTimeoutError")]
        assert jobs[-1]["events"] == {"timeout": 1}

    def test_pooled_batch_books_one_record_per_prove(self, workload,
                                                     tmp_path):
        """Forked workers inherit the spool: a clean 2-job pooled batch
        leaves one ``prove`` line per worker job and one batch line,
        and every bundle carries that batch record."""
        pk, vk, public, witness = workload
        spool = tmp_path / "flight.jsonl"
        FLIGHT.spool_to(str(spool))
        bundles = prove_many(pk, [(public, witness)] * 2,
                             workers=2, base_seed=7)
        FLIGHT.spool_to(None)
        lines = [e["data"] for e in read_spool(str(spool))]
        workers = [j for j in lines if j["op"] == "prove"]
        (batch,) = [j for j in lines if j["op"] == "prove_many"]
        assert len(lines) == 3 and len(workers) == 2
        assert {j["job_id"].split("-")[0] for j in workers} \
            .isdisjoint({batch["job_id"].split("-")[0]})
        assert batch["dispatch"] == "pool" and batch["jobs"] == 2
        assert batch["proof_size_bytes"] == sum(b.size_bytes()
                                                for b in bundles)
        assert all(b.report.to_dict() == batch for b in bundles)
        assert all(verify(vk, b) for b in bundles)

    def test_timeout_leaves_flight_trail(self, workload, spooled):
        pk, _, public, witness = workload
        incidents0 = FLIGHT.incidents()
        with pytest.raises(ProverTimeoutError):
            prove(pk, public, witness, seed=1, timeout_s=1e-5)
        deltas = FLIGHT.fault_deltas(incidents0)
        assert deltas.get("timeout", 0) >= 1
        failed = [e["data"] for e in spooled()
                  if e["kind"] == "job" and not e["data"]["ok"]]
        assert len(failed) == 1
        assert failed[0]["error"] == "ProverTimeoutError"
        assert failed[0]["events"] == deltas

    @pytest.mark.parametrize("case, ok, error", [
        ("valid", True, ""),
        ("tampered", False, ""),
        ("garbage", False, ""),
        ("garbage_public", False, "ValueError"),
        ("preset_mismatch", False, "PresetMismatch"),
    ])
    def test_verify_leaves_one_job_record(self, workload, capsys, tmp_path,
                                          case, ok, error):
        from repro.cli import main
        pk, vk, public, witness = workload
        bundle = prove(pk, public, witness, seed=4, circuit_id="synth8")
        if case == "tampered":
            bundle.public = bundle.public.copy()
            bundle.public[0] ^= np.uint64(1)
        elif case == "garbage":
            bundle = ProofBundle(proof=b"garbage", public=public,
                                 circuit_id="synth8")
        elif case == "garbage_public":
            bundle.public = "not field elements"
        elif case == "preset_mismatch":
            bundle.preset_name = PAPER.name
        spool = tmp_path / "flight.jsonl"
        FLIGHT.spool_to(str(spool))
        assert verify(vk, bundle) is ok
        records = read_spool(str(spool))
        assert [(e["kind"], e["data"]["op"]) for e in records] \
            == [("job", "verify")]
        data = records[0]["data"]
        assert data["ok"] is ok and data["error"] == error
        assert data["duration_s"] > 0 and data["circuit_id"] == "synth8"
        assert main(["report", "--log", str(spool), "--last", "1"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert "verify" in line and "synth8" in line
        assert ("ok" if ok else "FAIL") in line

    def test_telemetry_does_not_perturb_proof_bytes(self, workload):
        pk, _, public, witness = workload
        plain = prove(pk, public, witness, seed=11).to_bytes()
        with obs.tracing():
            traced = prove(pk, public, witness, seed=11).to_bytes()
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

    def test_calibration_per_size_band(self):
        """A host slow only at the large sizes is calibrated band by band
        (one factor over every size flagged them), the report names each
        band's factor, and a size off its band's shape still trips."""
        bd = _load_bench_diff()

        def sweep(ratio):
            return {"results": [
                {"log_size": s, "prove_s": ratio(s) * s, "verify_s": 0.5,
                 "proof_size_bytes": 10} for s in range(10, 21)]}

        base = sweep(lambda s: 1.0)
        slow_large = sweep(lambda s: 1.5 if s >= 16 else 1.0)
        median_of_all = sorted(1.5 if s >= 16 else 1.0
                               for s in range(10, 21))[11 // 2]
        assert 1.5 / median_of_all > 1.25      # what one factor flagged
        findings = bd.compare_prover(base, slow_large, calibrate=True)
        assert not [f for f in findings if f["regression"]]
        assert [(f["band"], f["factor"]) for f in findings
                if f["metric"] == "calibration"] == [([10, 14], 1.0),
                                                     ([15, 20], 1.5)]
        off_shape = sweep(lambda s: 2.0 if s == 18 else
                          1.5 if s >= 16 else 1.0)
        bad = [f for f in bd.compare_prover(base, off_shape, calibrate=True)
               if f["regression"]]
        assert [(f["metric"], f["log_size"]) for f in bad] \
            == [("prove_s", 18)]
        assert bd.band_of(8) == (10, 14) and bd.band_of(24) == (15, 20)

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
    def test_flight_log_and_report(self, tmp_path, capsys):
        from repro.cli import main
        flight = tmp_path / "flight.jsonl"
        assert main(["prove", "litmus", "--flight-log", str(flight)]) == 0
        jobs = [e["data"] for e in read_spool(str(flight))]
        assert [j["op"] for j in jobs] == ["prove", "verify"]
        assert all(j["ok"] and j["duration_s"] > 0 for j in jobs)
        capsys.readouterr()
        assert main(["report", "--log", str(flight)]) == 0
        out = capsys.readouterr().out
        assert "prove" in out and "verify" in out and "litmus" in out

    @pytest.mark.parametrize("argv", [
        ["metrics"],
        ["prove", "litmus", "--metrics-out", "m.prom"],
        ["trace", "litmus", "--metrics-out", "m.prom"],
        ["serve", "--metrics-out", "m.prom"],
    ])
    def test_retired_metrics_surfaces_are_usage_errors(self, argv):
        """The exposition had no reader (and ``serve`` silently dropped the
        flag): none of its spellings may come back as a no-op."""
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_report_empty_ring(self, capsys, monkeypatch):
        """A fresh CLI process's ring is always empty, so ``report``
        reads a spool only: with none named it is a config error."""
        from repro.cli import main
        from repro.obs.events import FLIGHT_LOG_ENV
        monkeypatch.delenv(FLIGHT_LOG_ENV, raising=False)
        assert main(["report"]) == 3
        err = capsys.readouterr().err
        assert "--log" in err and FLIGHT_LOG_ENV in err
