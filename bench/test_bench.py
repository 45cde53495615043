"""Self-test of the benchmark, at ``--small`` scale (2^11 / 2^12
synthetic, two 2^10 registry circuits, 2-second windows).  The numbers it
produces are NOT comparable with full-scale runs; it checks the harness.

    python -m pytest bench/test_bench.py

Tier-1 (``testpaths = tests``) neither collects this file nor slows down.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import defs  # noqa: E402
import measure  # noqa: E402
import staged  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cli(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, (lines[-1] if lines else "")


# -- names and contract ------------------------------------------------------------

def test_defs_equal_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == defs.benchmark_json()


def test_benchmark_json_within_contract_limits():
    spec = defs.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's cap with the window alone.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * spec["run_seconds"] < 3420


# -- whole runs ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", defs.WORKLOAD_NAMES)
def test_untraced_run_reports_seven_metrics(workload):
    proc, last = run_cli("--small", "--workload", workload, "--seed", "5",
                         "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(last)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [n for n, *_ in defs.END_TO_END]
    for name, unit, _better, _bound in defs.END_TO_END:
        metric = line["metrics"][name]
        assert set(metric) == {"value", "unit"} and metric["unit"] == unit
        assert metric["value"] > 0, name
    with open(os.path.join(BENCH_DIR, "out", f"{workload}.e2e.json")) as fh:
        detail = json.load(fh)
    assert detail["scale"] == "small" and detail["comparable"] is False
    assert len(detail["raw"]["cold"]["wall_s"]) >= 2
    for name in defs.END_TO_END_UNITS:
        assert detail["stats"][name]["n"] >= 1, name
    assert not [f for f in os.listdir(os.path.join(BENCH_DIR, "out"))
                if f.endswith(".sock")]


@pytest.mark.parametrize("workload", defs.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(workload):
    proc, last = run_cli("--small", "--workload", workload, "--seed", "5",
                         "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(last)
    # A staged proof whose bytes differ from prove() is a failed operation.
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [n for n, *_ in defs.PER_LAYER]
    values = {n: m["value"] for n, m in line["metrics"].items()}
    for name, unit, _better in defs.PER_LAYER:
        assert line["metrics"][name]["unit"] == unit
    assert values["parallel.bytes_mismatches"] == 0
    assert 0.5 < values["closure.prove_ratio"] < 1.5
    assert values["pcs.commit_s"] > 0 and values["spartan.prove_s"] > 0
    assert (values["service.daemon_start_s"] > 0) == (
        workload == "service_sha")
    assert (values["nocap.table4_gmean_speedup"] > 0) == (
        workload == "batch_small")
    with open(os.path.join(BENCH_DIR, "out",
                           f"{workload}.spans.json")) as fh:
        spans = json.load(fh)["spans"]
    assert spans and all(
        set(s) == {"name", "start", "end", "parent", "cycle", "scale"}
        for s in spans)
    roots = [s for s in spans if s["name"] == staged.PROVE_ROOT]
    assert roots and all(s["cycle"] >= 1 for s in roots)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    proc, last = run_cli("--workload", "prove_2p19", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout and last == ""


# -- each metric from its own operations ------------------------------------------------

def test_no_two_metrics_read_the_same_sample_list():
    samples = {name: [] for name in measure.SAMPLES}
    samples.update(prove_ref_s=[1.3, 1.0, 1.1], verify_ref_s=[2.0, 2.3, 2.1],
                   e2e_ref_s=[3.5, 3.6, 3.4], loop_ref_s=[4.4, 4.0, 4.8],
                   loop_s=[5.0, 5.0, 5.0])
    e2e = {"window_s": 99.0, "cycles": 3, "proofs": 12, "proof_bytes": 1234,
           "samples": samples}
    ref = defs.CALIB_REF_S
    cold = {"wall_s": [7.0, 14.4], "calib_s": [ref, 2 * ref]}
    values, stats = measure.end_to_end_values(e2e, cold, {"peak_rss_mb": 99.0})
    assert values == pytest.approx({
        "setup_s": 7.1, "prove_p50_s": 1.1, "verify_p50_s": 2.1,
        "e2e_p50_s": 3.5, "proofs_per_s": 4 / 4.4, "proof_bytes": 1234,
        "peak_rss_mb": 99.0})
    assert set(values) == set(defs.END_TO_END_UNITS)
    assert all(stats[name]["n"] >= 1 for name in values)


def test_cycle_end_to_end_is_prover_plus_link_plus_verifier():
    cycle = workloads.Cycle(1.0, 0.25, 0.5, [(0, b"x" * 5_000_000)])
    assert cycle.e2e_s == pytest.approx(1.0 + 0.25 + 0.5 + 0.5)
    assert cycle.e2e_ref_s == pytest.approx(cycle.e2e_s)


def test_reference_speed_scales_work_but_not_the_link():
    ref = defs.CALIB_REF_S
    cycle = workloads.Cycle(1.0, 0.25, 0.5, [(0, b"x" * 5_000_000)],
                            calib_prove_s=2 * ref, calib_verify_s=4 * ref,
                            loop_s=2.0)
    assert cycle.prove_ref_s == pytest.approx(0.5)
    assert cycle.verify_ref_s == pytest.approx(0.125)
    assert cycle.e2e_ref_s == pytest.approx(0.5 + 0.0625 + 0.5 + 0.125)
    # loop: 1.75 s of timed work became 0.6875 s at reference speed.
    assert cycle.loop_ref_s == pytest.approx(2.0 * 0.6875 / 1.75)


# -- the staged proof ----------------------------------------------------------------------

def test_staged_proof_bytes_equal_prove():
    from repro import ProofBundle, prove, verify

    st = workloads.synthetic_statement(defs.SMALL.log_2p19, seed=9)
    rec = SpanRecorder()
    bundle = staged.staged_prove(st.pk, st.public, st.witness, 77, rec,
                                 st.circuit_id)
    reference = prove(st.pk, st.public, st.witness, seed=77,
                      circuit_id=st.circuit_id)
    assert bundle.to_bytes() == reference.to_bytes()
    parsed = ProofBundle.from_bytes(bundle.to_bytes())
    assert verify(st.vk, parsed)
    assert staged.staged_verify(st.vk, parsed, rec)
    z = st.pk.r1cs.assemble_z(st.public, st.witness)
    tree = staged.staged_commit(st.pk, st.pk.r1cs.split_z(z)[1], 77, rec)
    assert tree.root == reference.proof.witness_commitment.root
    # Self time is duration minus children, and the ledger is complete.
    root = rec.roots(staged.PROVE_ROOT)[0]
    stages = sum(rec.duration(i) for i in rec.children(root))
    assert rec.self_seconds(root) == pytest.approx(
        rec.duration(root) - stages)
    assert stages / rec.duration(root) > 0.9


def test_staged_verify_rejects_what_verify_rejects():
    from repro import prove, verify

    st = workloads.synthetic_statement(defs.SMALL.log_2p19, seed=9)
    bundle = prove(st.pk, st.public, st.witness, seed=3)
    bundle.proof.repetitions[0].w_eval ^= 1
    assert not verify(st.vk, bundle)
    assert not staged.staged_verify(st.vk, bundle, SpanRecorder())


# -- failures are counted, never raised -----------------------------------------------------

def small_workload(name, tmp_path):
    tally = workloads.Tally()
    wl = workloads.make_workload(name, defs.SMALL, 4, tally, str(tmp_path))
    return wl, tally


def test_tampered_envelope_is_counted_not_raised(tmp_path, monkeypatch):
    wl, tally = small_workload("prove_2p19", tmp_path)
    wl.build()
    good = wl.cycle(0)
    assert good is not None and tally.failed == 0
    wl.tamper_check(good)
    assert tally.failed == 0  # the flipped byte was rejected, as it must be

    real_prove = workloads.prove

    def tampering_prove(*args, **kwargs):
        bundle = real_prove(*args, **kwargs)
        bundle.proof.repetitions[0].w_eval ^= 1
        return bundle

    monkeypatch.setattr(workloads, "prove", tampering_prove)
    attempted = tally.attempted
    assert wl.cycle(1) is None
    assert tally.attempted == attempted + 1 and tally.failed == 1
    assert "proof rejected" in tally.failures[0]

    # A tamper check that is not rejected is a failure too.
    monkeypatch.setattr(workloads, "flip_byte", lambda envelope: envelope)
    wl.tamper_check(good)
    assert tally.failed == 2
    wl.close()


def test_dead_socket_and_refused_request_are_counted(tmp_path):
    wl, tally = small_workload("service_sha", tmp_path)
    wl.build()
    try:
        assert wl.cycle(0) is not None and tally.failed == 0

        def flood():
            # Past the daemon's per-client bound the submit is refused.
            for j in range(64):
                wl.client.submit("prove", circuit_id=defs.SERVICE_CIRCUIT,
                                 seed=10_000 + j)

        assert tally.attempt("flood", flood) is None
        assert tally.failed == 1 and "QueueFullError" in tally.failures[0]

        wl.daemon.proc.kill()
        wl.daemon.proc.wait()
        assert wl.cycle(1) is None
        assert tally.failed == 2
    finally:
        wl.close()  # must not raise on a dead daemon
    assert tally.failed > 2  # the daemon did not drain and exit 0
    assert wl.daemon.proc.poll() is not None


def test_window_stops_when_every_cycle_fails(tmp_path, monkeypatch):
    wl, tally = small_workload("prove_2p19", tmp_path)
    wl.build()
    first = wl.cycle(0)

    def broken(*args, **kwargs):
        raise OSError("injected")

    monkeypatch.setattr(workloads, "prove", broken)
    e2e = measure.timed_window(wl, first, seconds=30.0)
    assert e2e["cycles"] == 0
    assert tally.failed == defs.MAX_CONSECUTIVE_FAILED_CYCLES
    values, _stats = measure.end_to_end_values(
        e2e, {"wall_s": [], "calib_s": []}, None)
    assert set(values) == set(defs.END_TO_END_UNITS)
    wl.close()


# -- comparison verdicts ---------------------------------------------------------------------

def test_judge_verdicts():
    a = [1.00, 1.01, 1.02, 1.03, 0.99]
    assert compare.judge(a, [1.01, 1.02, 1.00, 0.99, 1.03],
                         "lower", 0.10)["verdict"] == "same"
    assert compare.judge(a, [1.20, 1.21, 1.22, 1.19, 1.23],
                         "lower", 0.10)["verdict"] == "worse"
    assert compare.judge(a, [0.80, 0.81, 0.82, 0.79, 0.83],
                         "lower", 0.10)["verdict"] == "better"
    assert compare.judge(a, [0.80, 0.81, 0.82, 0.79, 0.83],
                         "higher", 0.10)["verdict"] == "worse"
    noisy = [0.8, 1.0, 1.3, 1.6, 0.9]
    assert compare.judge(a, noisy, "lower", 0.10)["verdict"] == "unresolved"
    # Wide spread, yet every run of B beyond every run of A: resolved.
    far = [2.0, 2.6, 3.2, 2.2, 3.0]
    assert compare.judge(a, far, "lower", 0.10)["verdict"] == "worse"
    j = compare.judge(a, far, "lower", 0.10)
    assert j["base"] == 1.01 and j["ratio_b_over_a"] == pytest.approx(
        2.6 / 1.01)
