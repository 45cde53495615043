"""Tests for the fault-tolerance layer: deterministic fault injection
(:mod:`repro.fuzz.faults`), cooperative deadlines
(:mod:`repro.parallel.deadline`), the one supervision rule of
:func:`repro.parallel.pool.prove_batch`, and the per-job failure
contract of :func:`repro.snark.prove_many`.

The invariant under test throughout: an injected fault either leaves the
proof bytes **identical** to the no-fault run (recovered) or surfaces as
a typed :class:`repro.errors.ReproError` — and never leaves a child
process or a /dev/shm entry behind either way.
"""

import contextlib
import multiprocessing
import os
import signal
import threading

import pytest

from repro.errors import ProverTimeoutError, ReproError
from repro.fuzz import faults
from repro.obs.events import FLIGHT
from repro.parallel import check_deadline, deadline_scope
from repro.parallel import pool as parallel_pool
from repro.parallel.deadline import Deadline, active_deadline, remaining
from repro.parallel.shm import segment_owner_pid
from repro.snark import TEST, prove, prove_many, setup, verify
from repro.workloads import synthetic_r1cs

#: Fast supervision for tests: a short stall watchdog.
QUICK_STALL_S = 2.0


@pytest.fixture(scope="module")
def instance():
    return synthetic_r1cs(log_size=10, seed=9)


@pytest.fixture(scope="module")
def keys(instance):
    r1cs, _, _ = instance
    return setup(r1cs, TEST)


def _shm_entries():
    try:
        return sorted(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return []


class TestFaultPlan:
    def test_env_round_trip(self):
        plan = faults.FaultPlan(kind="stall", site="prove_job", hits=3,
                                stall_s=1.5, token="t42")
        clone = faults.FaultPlan.from_env(plan.to_env())
        assert clone == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.FaultPlan(kind="meteor_strike", site="prove_job")

    def test_hits_must_be_positive(self):
        with pytest.raises(ValueError, match="hits"):
            faults.FaultPlan(kind="error", site="prove_job", hits=0)

    def test_injected_scope_arms_and_disarms(self):
        plan = faults.FaultPlan(kind="error", site="nowhere", token="scope")
        assert faults.FAULTS_ENV not in os.environ
        with faults.injected(plan):
            assert os.environ[faults.FAULTS_ENV] == plan.to_env()
        assert faults.FAULTS_ENV not in os.environ
        assert not os.path.exists(plan.claim_path)

    def test_error_fires_exactly_once(self):
        plan = faults.FaultPlan(kind="error", site="unit", token="once")
        with faults.injected(plan):
            with pytest.raises(RuntimeError, match="injected fault"):
                faults.maybe_fault("unit")
            # claim file arbitrates: the plan never fires twice
            for _ in range(5):
                faults.maybe_fault("unit")

    def test_hits_counts_arrivals(self):
        plan = faults.FaultPlan(kind="error", site="unit", hits=3,
                                token="third")
        with faults.injected(plan):
            faults.maybe_fault("unit")
            faults.maybe_fault("unit")
            with pytest.raises(RuntimeError):
                faults.maybe_fault("unit")

    def test_other_sites_untouched(self):
        plan = faults.FaultPlan(kind="error", site="unit", token="site")
        with faults.injected(plan):
            for _ in range(3):
                faults.maybe_fault("some_other_site")
            assert not os.path.exists(plan.claim_path)

    def test_no_plan_is_a_noop(self):
        faults.maybe_fault("anything")  # must not raise


class TestDeadline:
    def test_no_scope_is_unbounded(self):
        assert active_deadline() is None
        assert remaining() is None
        check_deadline("anywhere")  # no-op

    def test_expired_scope_raises_typed(self):
        with deadline_scope(0.0, label="unit test"):
            with pytest.raises(ProverTimeoutError) as ei:
                check_deadline("phase.x")
        err = ei.value
        assert isinstance(err, ReproError)
        assert isinstance(err, TimeoutError)
        assert err.budget_s == 0.0
        assert err.phase == "phase.x"
        assert "unit test" in str(err)

    def test_generous_scope_passes(self):
        with deadline_scope(60.0) as d:
            check_deadline("phase.y")
            assert 0 < remaining() <= 60.0
            assert not d.expired

    def test_none_budget_is_noop_scope(self):
        with deadline_scope(None):
            assert active_deadline() is None

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_nan_or_negative_budget_is_refused(self, budget):
        """A NaN budget compares false against every clock reading, so it
        would never expire: refused like a negative one."""
        with pytest.raises(ValueError, match="budget"):
            Deadline(budget)
        with pytest.raises(ValueError):
            with deadline_scope(budget):
                pass
        assert active_deadline() is None

    def test_nested_scope_clamps_to_outer(self):
        with deadline_scope(0.0):
            with deadline_scope(1000.0) as inner:
                # the inner "budget" cannot extend the spent outer one
                assert inner.expired
                with pytest.raises(ProverTimeoutError):
                    check_deadline()

    def test_scope_restores_previous_on_error(self):
        with deadline_scope(60.0) as outer:
            try:
                with deadline_scope(30.0):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_interleaved_scopes_on_two_threads_stay_apart(self):
        """Two threads calling ``prove()``, forced into the order enter A,
        enter B, exit A, exit B.  A module-global
        deadline let B clamp to A's spent budget, A's exit uninstall B's
        deadline, and B's exit reinstall A's for every later job."""
        a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
        seen = {}

        def job_a():
            with deadline_scope(0.0, label="job a"):
                a_entered.set()
                b_entered.wait(10)
            a_exited.set()

        def job_b():
            a_entered.wait(10)
            with deadline_scope(60.0, label="job b") as mine:
                b_entered.set()
                a_exited.wait(10)
                seen["b_remaining"] = mine.remaining()
                seen["b_active"] = active_deadline() is mine
            seen["b_after"] = active_deadline()

        threads = [threading.Thread(target=job) for job in (job_a, job_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert seen["b_active"] and seen["b_remaining"] > 30
        assert seen["b_after"] is None
        assert active_deadline() is None
        check_deadline("a later job")            # nothing stale left over


class TestProveTimeout:
    def test_prove_timeout_raises_typed(self, instance, keys):
        _, public, witness = instance
        pk, _ = keys
        with pytest.raises(ProverTimeoutError) as ei:
            prove(pk, public, witness, seed=1, timeout_s=1e-6)
        assert ei.value.budget_s == 1e-6
        assert ei.value.phase  # names the phase boundary that tripped
        assert active_deadline() is None  # scope unwound

    def test_prove_many_timeout_fails_the_whole_batch(self, instance, keys):
        """Every job of a batch with a spent budget would time out: the
        batch raises the first job's typed error and returns nothing."""
        _, public, witness = instance
        pk, _ = keys
        with pytest.raises(ProverTimeoutError) as ei:
            prove_many(pk, [(public, witness)] * 2, workers=1,
                       base_seed=5, timeout_s=1e-6)
        assert ei.value.budget_s == 1e-6

    def test_prove_many_timeout_on_error_raise(self, instance, keys):
        _, public, witness = instance
        pk, _ = keys
        with pytest.raises(ProverTimeoutError):
            prove_many(pk, [(public, witness)], workers=1,
                       base_seed=5, timeout_s=1e-6)

    def test_pooled_timeout_is_final(self, instance, keys):
        """A budget spent inside a worker is that job's answer: not
        retried on the fleet, not re-proved in the parent."""
        _, public, witness = instance
        pk, _ = keys
        incidents0 = FLIGHT.incidents()
        with pytest.raises(ProverTimeoutError):
            prove_many(pk, [(public, witness)] * 2,
                       workers=2, base_seed=5, timeout_s=1e-6)
        assert FLIGHT.fault_deltas(incidents0) == {}


class TestSupervisedRecovery:
    """The one supervision rule, driven through real ``prove_many``
    batches: bytes stay identical and nothing outlives the call."""

    @pytest.fixture(autouse=True)
    def quick_stall(self, monkeypatch):
        monkeypatch.setattr(parallel_pool, "STALL_TIMEOUT_S", QUICK_STALL_S)

    def _batch(self, instance, keys, base_seed, plan=None, jobs=2):
        """(reference bytes, bytes from 2 workers, incidents) of one
        batch, run under ``plan`` when given."""
        _, public, witness = instance
        pk, vk = keys
        batch = [(public, witness)] * jobs
        reference = [b.to_bytes() for b in
                     prove_many(pk, batch, workers=0, base_seed=base_seed)]
        before = _shm_entries()
        incidents0 = FLIGHT.incidents()
        with (faults.injected(plan) if plan is not None
              else contextlib.nullcontext()):
            bundles = prove_many(pk, batch, workers=2, base_seed=base_seed)
            assert plan is None or os.path.exists(plan.claim_path), \
                "fault never fired"
        assert all(verify(vk, b) for b in bundles)
        assert multiprocessing.active_children() == []
        assert _shm_entries() == before
        return (reference, [b.to_bytes() for b in bundles],
                FLIGHT.fault_deltas(incidents0))

    def test_clean_batch_leaves_nothing(self, instance, keys):
        reference, got, incidents = self._batch(instance, keys, 43)
        assert got == reference and incidents == {}

    def test_kill_is_recovered_by_the_second_round(self, instance, keys):
        plan = faults.FaultPlan(kind="worker_kill", site="prove_job",
                                token="t_kill")
        reference, got, incidents = self._batch(instance, keys, 46, plan)
        assert got == reference
        assert incidents == {"worker_restart": 1}

    def test_stall_is_recovered_by_the_second_round(self, instance, keys):
        plan = faults.FaultPlan(kind="stall", site="prove_job",
                                stall_s=30.0, token="t_stall")
        reference, got, incidents = self._batch(instance, keys, 47, plan)
        assert got == reference
        assert incidents == {"dispatch_stall": 1, "worker_restart": 1}

    def test_injected_error_is_proved_at_most_twice(self, instance, keys,
                                                    tmp_path, monkeypatch):
        """A job that raised is not re-run on workers: one attempt there,
        one in the caller."""
        log = tmp_path / "arrivals"

        def always_raise(site):
            with open(log, "a") as fh:
                fh.write(f"{site}\n")
            raise RuntimeError("injected: every worker attempt raises")

        monkeypatch.setattr(parallel_pool, "_maybe_fault", always_raise)
        reference, got, incidents = self._batch(instance, keys, 44, jobs=3)
        assert got == reference
        assert log.read_text().splitlines() == ["prove_job"] * 3
        assert incidents == {"task_error": 3, "degradation": 3}

    def test_kill_in_both_rounds_is_recovered_by_the_caller(
            self, instance, keys, monkeypatch):
        """Every worker that takes a job dies, in both rounds: the caller
        proves the lost jobs, one ``degradation`` each."""
        monkeypatch.setattr(
            parallel_pool, "_maybe_fault",
            lambda site: os.kill(os.getpid(), signal.SIGKILL))
        reference, got, incidents = self._batch(instance, keys, 48)
        assert got == reference
        assert incidents == {"worker_restart": 1, "degradation": 2}

    def test_deadline_expiry_kills_the_workers(self, instance, keys):
        """An enclosing deadline clamps the dispatch wait: expiry raises
        and no worker is left sleeping."""
        _, public, witness = instance
        pk, _ = keys
        plan = faults.FaultPlan(kind="stall", site="prove_job",
                                stall_s=30.0, token="t_deadline")
        with faults.injected(plan):
            with pytest.raises(ProverTimeoutError):
                with deadline_scope(1.0, label="batch budget"):
                    prove_many(pk, [(public, witness)] * 2,
                               workers=2, base_seed=49)
        assert multiprocessing.active_children() == []


class TestJanitor:
    """The janitor is gone; its name parser is a bench vestige."""

    def test_segment_owner_pid_parses_our_names(self):
        assert segment_owner_pid("repro_12345_0") == 12345
        assert segment_owner_pid("repro_sigterm_99_7") == 99
        assert segment_owner_pid("psm_abcdef") is None
        assert segment_owner_pid("some_other_tool_1_2") is None

    def test_doctor_cli_is_gone(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["doctor"])


class TestProveManyPartialFailure:
    def test_workers_zero_short_circuits_global_pool(self, instance, keys,
                                                     monkeypatch):
        """workers=0 or 1 must run inline without forking a batch."""
        from repro.snark import api

        monkeypatch.setattr(api, "prove_batch", None)  # calling it raises
        _, public, witness = instance
        pk, _ = keys
        for w in (0, 1):
            bundles = prove_many(pk, [(public, witness)] * 2, workers=w,
                                 base_seed=3)
            assert bundles[0].report.dispatch == "serial"
