"""Tests for the deterministic fault-injection subsystem (repro.faults).

Covers the :class:`~repro.faults.FaultPlan` unit surface (purity,
serialization, spec parsing, validation), machine-layer injection and
recovery through :meth:`MPCCluster.map_machines`, and the PR's
acceptance bar: with a fixed fault seed that kills process workers and
faults machine tasks, all three solvers complete **bit-identical** to
an undisturbed serial run — results and CountingOracle ledger alike —
and the obs trace records every injection and recovery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import mpc_diversity, mpc_kcenter, mpc_ksupplier
from repro.exceptions import FaultError, MachineFault
from repro.faults import MACHINE_FAULT_RETRIES, FaultPlan
from repro.metric.euclidean import EuclideanMetric
from repro.metric.oracle import CountingOracle
from repro.mpc.cluster import MPCCluster
from repro.mpc.executor import ProcessExecutor, SerialExecutor
from repro.obs.export import export_run, read_jsonl, to_chrome_trace
from repro.obs.record import Recorder


class TestFaultPlanValidation:
    def test_defaults_inject_nothing(self):
        plan = FaultPlan()
        assert not plan.worker_active
        assert not plan.machine_active
        assert not plan.service_active
        assert plan.worker_fault(0, 0) is None
        assert plan.machine_faults(0, 0, 0) == 0
        assert plan.service_fault(0) is None

    @pytest.mark.parametrize("field", ["worker_kill", "machine_fault", "service_error"])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(**{field: -0.1})

    def test_worker_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="<= 1"):
            FaultPlan(worker_kill=0.6, worker_corrupt=0.6)

    def test_service_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="<= 1"):
            FaultPlan(service_error=0.7, service_drop=0.7)

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan(worker_fault_attempts=0)
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan(machine_fault_attempts=0)

    def test_negative_burst_rejected(self):
        with pytest.raises(ValueError, match="error_burst"):
            FaultPlan(error_burst=-1)


class TestFaultPlanDeterminism:
    """The rolls are pure functions of (seed, coordinates)."""

    def test_identical_across_instances(self):
        a = FaultPlan(seed=13, worker_kill=0.3, worker_corrupt=0.2, machine_fault=0.25)
        b = FaultPlan.from_dict(a.to_dict())
        for batch in range(20):
            for widx in range(4):
                assert a.worker_fault(batch, widx) == b.worker_fault(batch, widx)
        for rnd in range(20):
            for mid in range(6):
                assert a.machine_faults(rnd, 1, mid) == b.machine_faults(rnd, 1, mid)

    def test_seed_changes_the_pattern(self):
        a = FaultPlan(seed=1, machine_fault=0.5)
        b = FaultPlan(seed=2, machine_fault=0.5)
        pattern = lambda p: [p.machine_faults(r, 1, m) for r in range(30) for m in range(4)]
        assert pattern(a) != pattern(b)

    def test_worker_fault_clears_after_attempts(self):
        plan = FaultPlan(seed=3, worker_kill=1.0, worker_fault_attempts=2)
        assert plan.worker_fault(1, 0, attempt=0) == "kill"
        assert plan.worker_fault(1, 0, attempt=1) == "kill"
        assert plan.worker_fault(1, 0, attempt=2) is None

    def test_rates_are_roughly_calibrated(self):
        plan = FaultPlan(seed=5, machine_fault=0.25)
        hits = sum(
            plan.machine_faults(r, d, m) > 0
            for r in range(50) for d in range(4) for m in range(5)
        )
        assert 0.15 < hits / 1000 < 0.35

    def test_error_burst_hits_first_requests(self):
        plan = FaultPlan(seed=0, error_burst=5)
        assert [plan.service_fault(i) for i in range(5)] == [("error", 429)] * 5
        assert plan.service_fault(5) is None

    def test_service_fault_alternates_statuses(self):
        plan = FaultPlan(seed=11, service_error=1.0)
        statuses = {plan.service_fault(i)[1] for i in range(40)}
        assert statuses == {429, 503}


class TestFaultPlanSpecs:
    def test_kv_spec_round_trip(self):
        plan = FaultPlan.from_spec("seed=7, worker_kill=0.25, machine_fault=0.1, error_burst=8")
        assert plan.seed == 7 and plan.worker_kill == 0.25
        assert plan.machine_fault == 0.1 and plan.error_burst == 8

    def test_json_spec(self):
        plan = FaultPlan(seed=4, service_drop=0.5)
        again = FaultPlan.from_spec(plan.to_json())
        assert again == plan

    def test_dict_and_plan_pass_through(self):
        plan = FaultPlan(seed=9)
        assert FaultPlan.from_spec(plan) is plan
        assert FaultPlan.from_spec({"seed": 9}) == plan
        assert FaultPlan.from_spec(None) is None
        assert FaultPlan.from_spec("   ") is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan field"):
            FaultPlan.from_spec("seed=1,wroker_kill=0.5")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="must be numeric"):
            FaultPlan.from_spec("worker_kill=high")

    def test_bare_word_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.from_spec("chaos")

    def test_describe_names_active_layers(self):
        assert "no active layers" in FaultPlan().describe()
        text = FaultPlan(worker_kill=0.5, service_drop=0.2).describe()
        assert "worker(" in text and "service(" in text and "machine(" not in text


@pytest.fixture
def pts():
    return np.random.default_rng(42).normal(scale=3.0, size=(150, 2))


class TestMachineFaultInjection:
    """Transient MachineFaults in map_machines tasks: injected at task
    entry, retried up to MACHINE_FAULT_RETRIES, bit-identical results."""

    def run(self, pts, faults=None, recorder=False):
        cluster = MPCCluster(EuclideanMetric(pts), 4, seed=7, faults=faults)
        rec = Recorder.attach(cluster) if recorder else None
        result = mpc_kcenter(cluster, 5, epsilon=0.2)
        return result, cluster, rec

    def test_recovered_run_is_bit_identical(self, pts):
        base, base_cluster, _ = self.run(pts)
        plan = FaultPlan(seed=21, machine_fault=0.2)
        faulted, cluster, rec = self.run(pts, faults=plan, recorder=True)
        assert faulted.radius == base.radius
        assert np.array_equal(faulted.centers, base.centers)
        assert cluster.stats.total_words == base_cluster.stats.total_words
        injected = [e for e in rec.log.faults if e.injected]
        recovered = [e for e in rec.log.faults if not e.injected]
        assert injected and recovered
        assert all(e.layer == "machine" and e.kind == "machine_fault" for e in injected)
        assert all(e.kind == "machine_retry" for e in recovered)
        # every faulted task recovered: one retry event per faulted task
        # (a task's first faulted attempt is the attempt-0 injection)
        assert len(recovered) == sum(1 for e in injected if e.attempt == 0)

    def test_machine_fault_is_a_fault_error(self):
        exc = MachineFault(3, round_no=7, attempt=1)
        assert isinstance(exc, FaultError)
        assert exc.machine_id == 3 and exc.round_no == 7

    def test_persistent_fault_exhausts_retries(self, pts):
        plan = FaultPlan(
            seed=1, machine_fault=1.0,
            machine_fault_attempts=MACHINE_FAULT_RETRIES + 1,
        )
        with pytest.raises(MachineFault):
            self.run(pts, faults=plan)

    def test_fault_persisting_to_the_last_retry_still_recovers(self, pts):
        plan = FaultPlan(
            seed=1, machine_fault=1.0,
            machine_fault_attempts=MACHINE_FAULT_RETRIES,
        )
        base, _, _ = self.run(pts)
        faulted, _, _ = self.run(pts, faults=plan)
        assert faulted.radius == base.radius

    def test_inactive_plan_adds_no_events(self, pts):
        _, _, rec = self.run(pts, faults=FaultPlan(seed=5), recorder=True)
        assert rec.log.faults == []
        assert rec.log.fault_summary() == {"injected": 0, "recovered": 0, "by_kind": {}}


#: the PR's fixed chaos seed: kills forked workers, corrupts payloads,
#: and faults machine tasks, all recoverable within the retry budgets
CHAOS_PLAN = dict(seed=2026, worker_kill=0.2, worker_corrupt=0.1, machine_fault=0.08)


class TestChaosAcceptance:
    """The acceptance bar: a faulted process run — workers killed
    mid-chunk, machine tasks raising transient faults — is bit-identical
    to an undisturbed serial run, including the CountingOracle ledger."""

    def oracle_cluster(self, pts, executor, faults=None):
        oracle = CountingOracle(EuclideanMetric(pts))
        cluster = MPCCluster(oracle, 4, seed=7, executor=executor, faults=faults)
        return cluster, oracle

    def run_pair(self, pts, fn):
        base_cluster, base_oracle = self.oracle_cluster(pts, SerialExecutor())
        base = fn(base_cluster)

        ex = ProcessExecutor(max_workers=3)
        if ex.fallback_reason:
            pytest.skip(ex.fallback_reason)
        plan = FaultPlan(**CHAOS_PLAN)
        cluster, oracle = self.oracle_cluster(pts, ex, faults=plan)
        rec = Recorder.attach(cluster)
        faulted = fn(cluster)

        # the seed really disturbed the run: >=1 worker kill, >=1 machine fault
        kinds = {e.kind for e in rec.log.faults if e.injected}
        assert "worker_kill" in kinds, f"seed injected no worker kills: {kinds}"
        assert "machine_fault" in kinds, f"seed injected no machine faults: {kinds}"
        # ... and recovery never had to leave the fork path
        stats = ex.recovery_stats()
        assert stats["faults_injected"] >= 2
        assert stats["serial_fallbacks"] == 0 and stats["degradations"] == []
        assert stats["chunk_retries"] >= 1
        summary = rec.log.fault_summary()
        assert summary["injected"] > 0 and summary["recovered"] > 0
        # bit-identical oracle ledger
        assert (oracle.calls, oracle.evaluations) == (base_oracle.calls, base_oracle.evaluations)
        ex.shutdown()
        return base, faulted

    def test_kcenter(self, pts):
        base, faulted = self.run_pair(pts, lambda c: mpc_kcenter(c, 5, epsilon=0.2))
        assert faulted.radius == base.radius
        assert np.array_equal(faulted.centers, base.centers)

    def test_diversity(self, pts):
        base, faulted = self.run_pair(pts, lambda c: mpc_diversity(c, 5, epsilon=0.2))
        assert faulted.diversity == base.diversity
        assert np.array_equal(np.sort(faulted.ids), np.sort(base.ids))

    def test_ksupplier(self, pts):
        customers = list(range(0, 150, 2))
        suppliers = list(range(1, 150, 2))
        base, faulted = self.run_pair(
            pts, lambda c: mpc_ksupplier(c, customers, suppliers, 4, epsilon=0.2)
        )
        assert faulted.radius == base.radius
        assert np.array_equal(faulted.suppliers, base.suppliers)


class TestFaultObservability:
    """Fault events survive the export round-trips."""

    def faulted_log(self, pts):
        cluster = MPCCluster(
            EuclideanMetric(pts), 4, seed=7, faults=FaultPlan(seed=21, machine_fault=0.2)
        )
        rec = Recorder.attach(cluster)
        mpc_kcenter(cluster, 5, epsilon=0.2)
        assert rec.log.faults
        return rec.log

    def test_jsonl_round_trip(self, pts, tmp_path):
        log = self.faulted_log(pts)
        path = export_run(log, tmp_path / "run.jsonl", "jsonl")
        again = read_jsonl(path)
        assert len(again.faults) == len(log.faults)
        for a, b in zip(again.faults, log.faults):
            assert (a.layer, a.kind, a.injected, a.round_no, a.target, a.attempt) == (
                b.layer, b.kind, b.injected, b.round_no, b.target, b.attempt
            )
        assert again.fault_summary() == log.fault_summary()

    def test_chrome_trace_carries_fault_instants(self, pts):
        log = self.faulted_log(pts)
        trace = to_chrome_trace(log)
        instants = [
            ev for ev in trace["traceEvents"]
            if ev.get("ph") == "i" and "fault" in ev.get("cat", "")
        ]
        assert len(instants) == len(log.faults)

    def test_run_log_meta_records_the_plan(self, pts):
        # the service runner stamps meta["faults"]; here we check the
        # summary is the chaos suite's acceptance view
        log = self.faulted_log(pts)
        summary = log.fault_summary()
        assert summary["by_kind"]["machine/machine_fault"] == summary["injected"]
        assert summary["by_kind"]["machine/machine_retry"] == summary["recovered"]
