"""Chaos-soak harness: determinism, differential safety, invariants.

The soak mixes overload bursts (2-4x probed capacity against a
deliberately small station) with injected hardware faults and checks
every response against an independent dict model.  These tests pin the
harness's own guarantees: byte-identical digests for a fixed seed,
airtight accounting, zero store/model divergence under combined chaos,
and a report that actually flags violated invariants.
"""

from dataclasses import replace

import pytest

from repro.chaos import SoakConfig, run_soak
from repro.chaos.soak import _Soak
from repro.core.admission import OverloadPolicy
from repro.core.operations import KVOperation
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, Tracer

#: Small but busy: eight drivers against a two-token station with a
#: two-deep queue, so the 2-4x bursts genuinely overflow admission while
#: the run still finishes fast.
QUICK = SoakConfig(
    num_keys=8,
    ops_per_key=20,
    max_inflight=2,
    overload=OverloadPolicy(queue_depth=2),
    # The two-token station sheds even in calm phases (capacity is
    # probed against the full paper-scale config); ~1/3 completes.
    goodput_floor=0.25,
)


class TestDeterminism:
    def test_same_seed_same_digest(self):
        first = run_soak(QUICK)
        second = run_soak(QUICK)
        assert first.digest == second.digest
        assert first.as_dict() == second.as_dict()

    def test_different_seed_different_digest(self):
        assert (
            run_soak(QUICK).digest
            != run_soak(replace(QUICK, seed=1)).digest
        )

    def test_config_changes_change_the_digest(self, monkeypatch):
        baseline = run_soak(QUICK).digest
        monkeypatch.setattr("repro.chaos.soak.BURST_HIGH", 3.0)
        assert run_soak(QUICK).digest != baseline

    def test_deterministic_with_faults_active(self):
        config = replace(QUICK, fault_plan=FaultPlan.chaos(0.02))
        first = run_soak(config)
        assert first.faults_fired > 0
        assert first.digest == run_soak(config).digest


class TestRobustnessReporting:
    """Client retry/fast-fail counters ride in every report, next to
    goodput, so retry-behaviour regressions are visible in the same JSON
    the CI soak gates on."""

    ROBUSTNESS_KEYS = {
        "node_down_retries", "wrong_epoch_retries", "retry_give_ups",
        "breaker_fast_fails", "breaker_opens", "budget_spent",
        "budget_refused",
    }

    def test_plain_soak_reports_zeroed_counters(self):
        report = run_soak(QUICK).as_dict()
        assert set(report["robustness"]) == self.ROBUSTNESS_KEYS
        assert all(value == 0 for value in report["robustness"].values())
        assert report["cluster"] is None
        # The counters sit in the same document as the goodput they
        # contextualize.
        assert "goodput" in report

    def test_cluster_soak_reports_live_counters(self):
        report = run_soak(
            SoakConfig(
                cluster_nodes=3, kill_node=True, num_keys=8,
                ops_per_key=20, goodput_floor=0.3,
            )
        ).as_dict()
        assert set(report["robustness"]) == self.ROBUSTNESS_KEYS
        assert report["robustness"]["node_down_retries"] > 0
        assert report["cluster"]["failovers"] == 1


class TestInvariants:
    def test_clean_soak_passes_every_invariant(self):
        report = run_soak(QUICK)
        assert report.check() == []
        assert report.as_dict()["ok"] is True

    def test_accounting_is_airtight(self):
        report = run_soak(QUICK)
        assert report.submitted == QUICK.num_keys * QUICK.ops_per_key
        assert (
            report.completed + report.shed + report.expired + report.failed
            == report.submitted
        )

    def test_bursts_actually_shed(self):
        report = run_soak(QUICK)
        assert report.shed > 0
        assert report.goodput >= QUICK.goodput_floor

    def test_no_divergence_under_combined_chaos(self):
        """The acceptance criterion: faults + overload + deadlines at
        once, zero differential divergence, final states identical."""
        report = run_soak(
            replace(QUICK,
                fault_plan=FaultPlan.chaos(0.05),
                deadline_budget_ns=50_000.0,
                goodput_floor=0.0,  # heavy chaos; safety is the claim here
            )
        )
        assert report.faults_fired > 0
        assert report.divergences == []
        assert report.final_state_matches
        assert report.check() == []

    def test_tight_deadline_budget_expires_ops(self):
        report = run_soak(
            replace(QUICK,
                deadline_budget_ns=300.0, goodput_floor=0.0
            )
        )
        assert report.expired > 0
        assert report.divergences == []
        assert report.final_state_matches

    def test_blocking_ingress_soaks_without_shedding(self):
        report = run_soak(replace(QUICK, overload=None))
        assert report.shed == 0
        assert report.check() == []

    def test_goodput_floor_violation_is_reported(self):
        report = run_soak(replace(QUICK, goodput_floor=1.0))
        problems = report.check()
        assert any("goodput" in p for p in problems)
        assert report.as_dict()["ok"] is False

    def test_reconciliation_classifies_failed_ops(self):
        # Slab exhaustion reliably fails individual ops; reconciliation
        # must classify each failure (applied or not) without diverging,
        # and the final store must still equal the model.
        report = run_soak(
            SoakConfig(
                num_keys=8,
                ops_per_key=20,
                goodput_floor=0.0,
                fault_plan=FaultPlan(slab_exhaust_prob=0.3),
            )
        )
        assert report.failed > 0
        assert report.divergences == []
        assert report.final_state_matches


class TestHarnessPlumbing:
    def test_registry_and_tracer_wire_in(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        report = run_soak(QUICK, tracer=tracer, registry=registry)
        exported = registry.to_json()
        assert "ingress.shed_total" in exported
        assert "station.occupancy" in exported
        assert report.shed > 0
        assert len(tracer.spans) > 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(num_keys=0)
        with pytest.raises(ConfigurationError):
            SoakConfig(ops_per_key=0)
        with pytest.raises(ConfigurationError):
            SoakConfig(goodput_floor=1.5)

    def test_overload_policy_flows_through(self):
        report = run_soak(
            replace(QUICK,
                overload=OverloadPolicy(
                    queue_depth=4, shed_policy="by-op-class"
                )
            )
        )
        assert report.shed > 0
        assert report.check() == []

    def test_reconciling_a_failed_op_reads_without_counting(self):
        """Regression: ``_reconcile_failure`` read the store through the
        counted ``store.get`` - one phantom memory access, ``gets`` count
        and ``get_cost`` sample per shed, expired or failed op, with no
        DMA replayed for any of them."""
        soak = _Soak(QUICK, None)
        report = soak.run()
        assert report.shed > 0 and report.check() == []
        assert soak.model.state
        for key in sorted(soak.model.state):
            table = soak.topology.owner(key).store.table
            before = (
                table.memory.accesses, table.counters["gets"],
                table.get_cost.count,
            )
            soak._reconcile_failure(KVOperation.get(key, seq=-1))
            assert (
                table.memory.accesses, table.counters["gets"],
                table.get_cost.count,
            ) == before
        assert soak.report.divergences == []
