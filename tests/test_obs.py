"""Tests for the observability layer: spans, counters, exporters, and the
guarantee that tracing never perturbs proofs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.hashing.merkle import MerkleTree
from repro.nocap import NoCapSimulator
from repro.obs import FAMILIES, METRICS, Tracer
from repro.obs.export import (
    chrome_trace,
    phases_payload,
    validate_chrome_trace,
    validate_phases,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends on the no-op path."""
    obs.set_tracer(None)
    METRICS.enabled = False
    METRICS.reset()
    yield
    obs.set_tracer(None)
    METRICS.enabled = False
    METRICS.reset()


class TestSpans:
    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("a", "other"):
            with tracer.span("b", "sumcheck"):
                with tracer.span("c", "merkle"):
                    pass
            with tracer.span("d", "spmv"):
                pass
        recs = tracer.records()
        assert [r.name for r in recs] == ["a", "b", "c", "d"]
        assert [r.depth for r in recs] == [0, 1, 2, 1]
        assert [r.parent for r in recs] == [None, 0, 1, 0]
        assert all(r.wall_s is not None and r.wall_s >= 0 for r in recs)
        assert all(r.cpu_s is not None for r in recs)

    def test_unknown_family_coerced_to_other(self):
        tracer = Tracer()
        with tracer.span("x", "not-a-family"):
            pass
        assert tracer.records()[0].family == "other"

    def test_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer", "other"):
                with tracer.span("inner", "merkle"):
                    raise ValueError("boom")
        recs = tracer.records()
        # Both spans closed despite the exception, stack fully unwound.
        assert all(r.wall_s is not None for r in recs)
        assert tracer._stack == []
        assert recs[0].attrs["error"] == "ValueError"
        assert recs[1].attrs["error"] == "ValueError"
        # The tracer still works after the exception.
        with tracer.span("after", "other"):
            pass
        assert tracer.records()[-1].depth == 0

    def test_family_seconds_excludes_children(self):
        tracer = Tracer()
        with tracer.span("root", "other"):
            with tracer.span("child", "merkle"):
                pass
        fam = tracer.family_seconds("root")
        root_rec, child_rec = tracer.records()
        assert fam["merkle"] == pytest.approx(child_rec.wall_s)
        assert fam["other"] == pytest.approx(
            root_rec.wall_s - child_rec.wall_s, abs=1e-9)
        # Exclusive attribution sums back to the inclusive root time.
        assert sum(fam.values()) == pytest.approx(root_rec.wall_s, abs=1e-9)

    def test_module_helpers_noop_when_disabled(self):
        assert obs.get_tracer() is None
        with obs.span("ignored", "merkle"):
            pass  # must not raise, must not record anywhere
        with obs.tracing() as tracer:
            with obs.span("seen", "merkle"):
                pass
        assert obs.get_tracer() is None
        assert [r.name for r in tracer.records()] == ["seen"]
        assert tracer.metrics_snapshot  # finish() ran


class TestCounters:
    def test_disabled_registry_records_nothing(self):
        METRICS.inc("x", 5)
        METRICS.gauge("g", 1)
        assert METRICS.counters() == {}
        assert METRICS.gauges() == {}

    def test_merkle_hash_count_pow2_tree(self):
        # A 2^10-leaf binary tree has 2^10 - 1 = 1023 internal hashes.
        leaves = np.arange(4 * 1024, dtype=np.uint64).reshape(1024, 4)
        METRICS.enabled = True
        MerkleTree(leaves)
        counters = METRICS.counters()
        assert counters["merkle.hashes"] == 1023
        assert counters["merkle.trees"] == 1

    def test_field_mul_batches_counts_calls(self):
        from repro.field import vector as fv

        METRICS.enabled = True
        a = np.arange(8, dtype=np.uint64)
        for _ in range(7):
            fv.mul(a, a)
        assert METRICS.counters()["field.mul_batches"] == 7
        # dot forms its own partial products and books nothing.
        fv.dot(a, a)
        assert METRICS.counters() == {"field.mul_batches": 7}

    def test_ntt_butterfly_count(self):
        from repro.code.reed_solomon import ReedSolomonCode

        rs = ReedSolomonCode()
        message = np.arange(64, dtype=np.uint64).reshape(4, 16)
        METRICS.enabled = True
        rs.encode(message)
        counters = METRICS.counters()
        # 4 rows, codeword length 4*16=64: (64/2) * log2(64) = 192 each.
        assert counters["ntt.butterflies"] == 4 * (64 // 2) * 6
        assert counters["rs.rows_encoded"] == 4

    def test_span_counter_deltas(self):
        METRICS.enabled = True
        tracer = Tracer(METRICS)
        with tracer.span("outer", "other"):
            METRICS.inc("k", 2)
            with tracer.span("inner", "other"):
                METRICS.inc("k", 3)
        outer, inner = tracer.records()
        assert inner.counters == {"k": 3}
        assert outer.counters == {"k": 5}  # inclusive of children


class TestExport:
    def _traced(self):
        with obs.tracing() as tracer:
            with obs.span("snark.prove", "other"):
                with obs.span("merkle.build", "merkle", leaves=8):
                    pass
        return tracer

    def test_chrome_trace_valid_and_loadable(self, tmp_path):
        tracer = self._traced()
        report = NoCapSimulator().simulate(1 << 12)
        obj = chrome_trace(records=tracer.records(), report=report,
                           metadata={"workload": "test"})
        assert validate_chrome_trace(obj) == []
        # Round-trips through JSON (no numpy scalars or NaNs leaked).
        assert validate_chrome_trace(json.loads(json.dumps(obj))) == []
        events = obj["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {1, 2}  # functional + simulated processes
        x_events = [e for e in events if e["ph"] == "X"]
        assert {e["cat"] for e in x_events} <= set(FAMILIES)
        # Simulated slices are serial: sorted by start within the process.
        sim = [e for e in x_events if e["pid"] == 2]
        assert sim and [e["ts"] for e in sim] == sorted(e["ts"] for e in sim)

    def test_chrome_trace_validator_rejects_corruption(self):
        tracer = self._traced()
        obj = chrome_trace(records=tracer.records())
        assert validate_chrome_trace(obj) == []
        bad = json.loads(json.dumps(obj))
        bad["traceEvents"][2]["dur"] = -1.0
        assert validate_chrome_trace(bad)
        assert validate_chrome_trace({"traceEvents": "nope"})
        assert validate_chrome_trace([1, 2, 3])

    def test_phases_payload_valid(self):
        tracer = self._traced()
        report = NoCapSimulator().simulate(1 << 12)
        obj = phases_payload(tracer=tracer, report=report, workload="test")
        assert validate_phases(obj) == []
        assert validate_phases(json.loads(json.dumps(obj))) == []
        # A span is booked once: as its Chrome trace event, not here too.
        assert "spans" not in obj["functional"]
        for section in ("functional", "simulated"):
            fracs = obj[section]["fractions_by_family"]
            assert set(fracs) == set(FAMILIES)
            assert sum(fracs.values()) == pytest.approx(1.0)

    def test_phases_validator_rejects_corruption(self):
        tracer = self._traced()
        obj = phases_payload(tracer=tracer, workload="test")
        assert validate_phases(obj) == []
        bad = json.loads(json.dumps(obj))
        bad["functional"]["fractions_by_family"]["merkle"] += 0.5
        assert validate_phases(bad)
        bad = json.loads(json.dumps(obj))
        del bad["functional"]["seconds_by_family"]["merkle"]
        assert validate_phases(bad)
        assert validate_phases({"schema": "wrong"})


class TestExportEdgeCases:
    """Exporter behavior at the boundaries: nothing traced, nothing
    enabled, non-ASCII span names, and multi-worker merged traces."""

    def test_chrome_trace_empty_records(self, tmp_path):
        obj = chrome_trace(records=[])
        # Only process/thread metadata events, no slices — still a
        # structurally valid trace that round-trips through JSON.
        assert [e for e in obj["traceEvents"] if e["ph"] == "X"] == []
        assert all(e["ph"] == "M" for e in obj["traceEvents"])
        assert validate_chrome_trace(json.loads(json.dumps(obj))) == []

    def test_phases_payload_empty_tracer(self):
        tracer = Tracer()
        tracer.finish()
        obj = phases_payload(tracer=tracer, workload="empty")
        assert validate_phases(obj) == []
        fracs = obj["functional"]["fractions_by_family"]
        assert set(fracs) == set(FAMILIES)
        assert set(obj["functional"]["seconds_by_family"].values()) == {0.0}

    def test_export_from_disabled_tracer_path(self):
        # With no active tracer, module-level spans hit the null path and
        # there is nothing to export; the registry stays empty too.
        with obs.span("invisible", "merkle"):
            pass
        assert obs.get_tracer() is None
        assert METRICS.counters() == {}
        obj = chrome_trace(records=[])
        assert "traceEvents" in obj

    def test_unicode_span_names_roundtrip(self, tmp_path):
        with obs.tracing() as tracer:
            with obs.span("snark.prove", "other"):
                with obs.span("mérkle—дерево ✓", "merkle", note="ünïcode"):
                    pass
        obj = chrome_trace(records=tracer.records())
        assert validate_chrome_trace(obj) == []
        # Full JSON round-trip preserves the names byte-for-byte.
        back = json.loads(json.dumps(obj, ensure_ascii=False))
        assert validate_chrome_trace(back) == []
        names = {e["name"] for e in back["traceEvents"] if e["ph"] == "X"}
        assert "mérkle—дерево ✓" in names
        payload = phases_payload(tracer=tracer, workload="unicode")
        assert validate_phases(json.loads(json.dumps(payload))) == []


class TestTaskRecord:
    def test_simulator_emits_bound_classification(self):
        report = NoCapSimulator().simulate(1 << 12)
        assert report.task_times
        for task in report.task_times:
            assert task.family in FAMILIES
            assert task.bound in ("compute", "memory")
            assert task.mem_bytes >= 0
            assert task.fu_cycles  # every task exercises some FU


class TestDeterminism:
    def test_tracing_does_not_perturb_proof_bytes(self):
        from repro.r1cs import Circuit
        from repro.snark import TEST, proof_to_bytes, prove, setup

        circuit = Circuit()
        out = circuit.public(35)
        x = circuit.witness(3)
        circuit.assert_equal(
            circuit.mul(circuit.mul(x, x), x) + x + 5, out)
        r1cs, public, witness = circuit.compile()
        pk, _ = setup(r1cs, TEST)

        plain = proof_to_bytes(prove(pk, public, witness, seed=7).proof)
        with obs.tracing():
            traced = proof_to_bytes(prove(pk, public, witness, seed=7).proof)
        assert plain == traced
