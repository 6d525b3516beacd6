"""Supervised shard execution: retries, timeouts, quarantine, resume.

Every failure is planted deterministically with a
:class:`~repro.netsim.faults.WorkerFaultPlan`, so the assertions are
exact: retry counts, quarantine membership, and — the headline property
— that degraded and resumed campaigns produce tables byte-identical to
clean runs over the same surviving months.
"""

import json
import multiprocessing.connection

import pytest

from repro.core.parallel import ShardExecutor, analyze_directory
from repro.core.report import render_run_health
from repro.core.supervisor import (
    CampaignDegradedError,
    DegradePolicy,
    RetryPolicy,
    RunHealth,
    ShardState,
    ShardSupervisor,
)
from repro.netsim import (
    ScenarioConfig,
    SimulatedWorkerCrash,
    TrafficGenerator,
    TransientWorkerFault,
    WorkerFaultPlan,
)
from repro.zeek.files import TsvDirectorySource, discover_shards, write_rotated_logs

pytestmark = pytest.mark.usefixtures("supervision_watchdog")

#: Process-spawning fault-injection classes below carry these marks;
#: the default tier-1 run (`-m "not slow"`) skips them, the CI
#: full-matrix job runs everything.
CHAOS = [pytest.mark.slow, pytest.mark.chaos]

_SCENARIO = ScenarioConfig(months=4, connections_per_month=150, seed=29)

#: No backoff sleeping in tests; quarantine after the second attempt.
FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base=0.0)


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(_SCENARIO).generate()


@pytest.fixture(scope="module")
def archive(simulation, tmp_path_factory):
    directory = tmp_path_factory.mktemp("supervised")
    write_rotated_logs(simulation.logs, directory)
    return directory


@pytest.fixture(scope="module")
def months(archive):
    return [month for month, _, _ in discover_shards(archive)]


@pytest.fixture(scope="module")
def clean_campaign(archive, simulation):
    return analyze_directory(
        archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log, jobs=2
    )


@pytest.fixture(scope="module")
def clean_tables(clean_campaign):
    return [t.render() for t in clean_campaign.tables()]


def _run(archive, simulation, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    return analyze_directory(
        archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log, **kwargs
    )


def _restricted_tables(archive, simulation, excluded: str):
    """A clean run over every shard except ``excluded``."""
    source = TsvDirectorySource.from_shards(
        t for t in discover_shards(archive) if t[0] != excluded
    )
    executor = ShardExecutor(simulation.trust_bundle, simulation.ct_log, jobs=2)
    return [t.render() for t in executor.run_source(source).tables()]


class TestPolicies:
    def test_retry_backoff_schedule(self):
        retry = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3)
        assert retry.delay(1) == 0.0
        assert retry.delay(2) == pytest.approx(0.1)
        assert retry.delay(3) == pytest.approx(0.2)
        assert retry.delay(5) == pytest.approx(0.3)  # capped

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=-1.0)

    def test_degrade_policy_coerce(self):
        assert DegradePolicy.coerce("partial") is DegradePolicy.PARTIAL
        assert DegradePolicy.coerce(DegradePolicy.STRICT) is DegradePolicy.STRICT
        with pytest.raises(ValueError, match="unknown degrade policy"):
            DegradePolicy.coerce("lenient")


class TestWorkerFaultPlan:
    def test_transient_budget(self):
        plan = WorkerFaultPlan(transient_failures=(("2022-05", 2),))
        assert plan.transient_budget("2022-05") == 2
        assert plan.transient_budget("2022-06") == 0

    def test_transient_fires_then_clears(self):
        plan = WorkerFaultPlan(transient_failures=(("m", 1),))
        with pytest.raises(TransientWorkerFault):
            plan.apply("m", "scan", attempt=1)
        plan.apply("m", "scan", attempt=2)  # attempt 2 succeeds

    def test_inline_crash_is_simulated(self):
        plan = WorkerFaultPlan(crash_months=("m",))
        with pytest.raises(SimulatedWorkerCrash):
            plan.apply("m", "scan", attempt=1, inline=True)

    def test_phase_restriction(self):
        plan = WorkerFaultPlan(crash_months=("m",), phase="analyze")
        plan.apply("m", "scan", attempt=1, inline=True)  # no fault
        with pytest.raises(SimulatedWorkerCrash):
            plan.apply("m", "analyze", attempt=1, inline=True)


class TestTransientFailures:
    pytestmark = CHAOS

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retried_to_success(self, archive, simulation, months, clean_tables, jobs):
        plan = WorkerFaultPlan(transient_failures=((months[1], 1),))
        campaign = _run(
            archive, simulation, jobs=jobs, fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
        assert [t.render() for t in campaign.tables()] == clean_tables
        health = campaign.health
        assert health.coverage == 1.0
        assert not health.quarantined_months
        # One failed-then-retried attempt per phase.
        assert health.shards[months[1]].retries == 2
        assert health.total_retries == 2
        assert not health.clean

    def test_exhausted_budget_quarantines(self, archive, simulation, months):
        plan = WorkerFaultPlan(transient_failures=((months[0], 5),))
        campaign = _run(
            archive, simulation, jobs=1, fault_plan=plan, degrade="partial"
        )
        assert campaign.health.quarantined_months == (months[0],)
        shard = campaign.health.shards[months[0]]
        assert shard.state is ShardState.QUARANTINED
        assert shard.attempts == FAST_RETRY.max_attempts
        assert any("TransientWorkerFault" in f for f in shard.failures)


class TestCrashFaults:
    pytestmark = CHAOS

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partial_completes_from_survivors(
        self, archive, simulation, months, jobs
    ):
        """The acceptance property: one poison shard, PARTIAL policy,
        and the surviving months' tables are byte-identical to a clean
        run restricted to those months."""
        poison = months[2]
        plan = WorkerFaultPlan(crash_months=(poison,))
        campaign = _run(
            archive, simulation, jobs=jobs, fault_plan=plan, degrade="partial"
        )
        assert campaign.health.quarantined_months == (poison,)
        assert campaign.months == tuple(m for m in months if m != poison)
        assert campaign.health.coverage == pytest.approx(3 / 4)
        assert [t.render() for t in campaign.tables()] == _restricted_tables(
            archive, simulation, poison
        )

    def test_strict_raises(self, archive, simulation, months):
        plan = WorkerFaultPlan(crash_months=(months[1],))
        with pytest.raises(CampaignDegradedError) as excinfo:
            _run(archive, simulation, jobs=2, fault_plan=plan)
        assert excinfo.value.key == months[1]
        assert excinfo.value.phase == "scan"
        assert months[1] in str(excinfo.value)

    def test_analyze_phase_crash_quarantines(self, archive, simulation, months):
        plan = WorkerFaultPlan(crash_months=(months[0],), phase="analyze")
        campaign = _run(
            archive, simulation, jobs=2, fault_plan=plan, degrade="partial"
        )
        assert campaign.health.quarantined_months == (months[0],)
        assert any(
            f.startswith("analyze:")
            for f in campaign.health.shards[months[0]].failures
        )
        # The scan still contributed to the global interception report.
        assert campaign.health.shards[months[0]].attempts >= 3

    def test_worker_crash_reports_exit_code(self, archive, simulation, months):
        plan = WorkerFaultPlan(crash_months=(months[0],))
        campaign = _run(
            archive, simulation, jobs=2, fault_plan=plan, degrade="partial"
        )
        failures = campaign.health.shards[months[0]].failures
        assert any("worker crashed" in f and "137" in f for f in failures)


class TestHangFaults:
    pytestmark = CHAOS

    def test_hung_worker_killed_on_timeout(self, archive, simulation, months):
        plan = WorkerFaultPlan(hang_months=(months[0],), hang_seconds=30.0)
        campaign = _run(
            archive, simulation, jobs=2, fault_plan=plan, degrade="partial",
            retry=RetryPolicy(max_attempts=2, timeout=0.75, backoff_base=0.0),
        )
        assert campaign.health.quarantined_months == (months[0],)
        failures = campaign.health.shards[months[0]].failures
        assert any("timeout" in f for f in failures)

    def test_inline_timeout_enforced_post_hoc(self, archive, simulation, months):
        plan = WorkerFaultPlan(hang_months=(months[0],), hang_seconds=0.2)
        campaign = _run(
            archive, simulation, jobs=1, fault_plan=plan, degrade="partial",
            retry=RetryPolicy(max_attempts=2, timeout=0.05, backoff_base=0.0),
        )
        assert months[0] in campaign.health.quarantined_months


class TestResume:
    pytestmark = CHAOS

    def test_resume_after_strict_abort_is_byte_identical(
        self, archive, simulation, months, clean_tables, tmp_path
    ):
        """Simulated parent kill: a strict abort leaves spilled shards
        behind; the rerun reuses them and matches an uninterrupted run."""
        run_dir = tmp_path / "run"
        plan = WorkerFaultPlan(crash_months=(months[3],))
        with pytest.raises(CampaignDegradedError):
            _run(
                archive, simulation, jobs=2, fault_plan=plan,
                resume_dir=run_dir,
            )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        spilled = set(manifest["scans"])
        assert spilled  # at least one shard finished before the abort
        assert months[3] not in spilled

        campaign = _run(archive, simulation, jobs=2, resume_dir=run_dir)
        assert [t.render() for t in campaign.tables()] == clean_tables
        assert campaign.health.coverage == 1.0
        for month in spilled:
            assert "scan" in campaign.health.shards[month].resumed_phases

    def test_second_resume_runs_nothing(
        self, archive, simulation, months, clean_tables, tmp_path
    ):
        run_dir = tmp_path / "run"
        _run(archive, simulation, jobs=2, resume_dir=run_dir)
        campaign = _run(archive, simulation, jobs=1, resume_dir=run_dir)
        assert set(campaign.health.resumed_months) == set(months)
        for month in months:
            shard = campaign.health.shards[month]
            assert shard.state is ShardState.RESUMED
            assert shard.attempts == 0
        assert [t.render() for t in campaign.tables()] == clean_tables

    def test_quarantined_month_retried_on_resume(
        self, archive, simulation, months, clean_tables, tmp_path
    ):
        """A month poisoned in run 1 is not poisoned forever: the resumed
        run re-attempts it (the manifest only records successes) and the
        campaign converges to the uninterrupted tables."""
        run_dir = tmp_path / "run"
        plan = WorkerFaultPlan(crash_months=(months[1],))
        degraded = _run(
            archive, simulation, jobs=2, fault_plan=plan, degrade="partial",
            resume_dir=run_dir,
        )
        assert degraded.health.quarantined_months == (months[1],)
        campaign = _run(archive, simulation, jobs=2, resume_dir=run_dir)
        assert campaign.health.coverage == 1.0
        assert [t.render() for t in campaign.tables()] == clean_tables

    def test_metrics_survive_resume(
        self, archive, simulation, months, tmp_path
    ):
        """Metrics ride the manifest spills: a crashed-then-resumed
        campaign merges to exactly the pipeline counters of an
        uninterrupted run (supervisor bookkeeping excluded — the resumed
        run legitimately records the extra attempts and resumes)."""
        def pipeline_counters(campaign):
            return {
                name: value
                for name, value in
                campaign.metrics.state_dict()["counters"].items()
                if not name.startswith("supervisor.")
            }

        uninterrupted = _run(archive, simulation, jobs=2)
        run_dir = tmp_path / "run"
        plan = WorkerFaultPlan(crash_months=(months[3],))
        with pytest.raises(CampaignDegradedError):
            _run(
                archive, simulation, jobs=2, fault_plan=plan,
                resume_dir=run_dir,
            )
        resumed = _run(archive, simulation, jobs=2, resume_dir=run_dir)
        assert any(  # spilled scans were actually reused
            shard.resumed_phases for shard in resumed.health.shards.values()
        )
        counters = pipeline_counters(resumed)
        assert counters == pipeline_counters(uninterrupted)
        assert counters["ingest.ssl.rows_ok"] == len(simulation.logs.ssl)
        assert counters["ingest.x509.rows_ok"] == len(simulation.logs.x509)

    def test_manifest_rejects_different_campaign(
        self, archive, simulation, tmp_path
    ):
        run_dir = tmp_path / "run"
        _run(archive, simulation, jobs=1, resume_dir=run_dir)
        with pytest.raises(ValueError, match="different campaign"):
            analyze_directory(
                archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log,
                jobs=1, min_interception_domains=9, resume_dir=run_dir,
            )

    def test_torn_spill_is_rerun_not_fatal(
        self, archive, simulation, months, clean_tables, tmp_path
    ):
        run_dir = tmp_path / "run"
        _run(archive, simulation, jobs=1, resume_dir=run_dir)
        (run_dir / f"scan.{months[0]}.pkl").write_bytes(b"torn write")
        campaign = _run(archive, simulation, jobs=1, resume_dir=run_dir)
        assert campaign.health.coverage == 1.0
        assert [t.render() for t in campaign.tables()] == clean_tables
        # The torn scan was re-run, not resumed.
        assert "scan" not in campaign.health.shards[months[0]].resumed_phases


class TestParentWait:
    """The parent blocks on its workers instead of polling them: each
    phase waits about once per result, retry and backoff expiry."""

    @pytest.mark.parametrize(
        "faults",
        [
            pytest.param(False, id="clean"),
            pytest.param(True, id="transient-backoff", marks=CHAOS),
        ],
    )
    def test_wait_calls_bounded_by_tasks(
        self, archive, simulation, months, monkeypatch, faults
    ):
        phases: list[dict] = []
        real_wait = multiprocessing.connection.wait
        real_run = ShardSupervisor._run_processes
        real_failure = ShardSupervisor._record_failure

        def counting_wait(object_list, timeout=None):
            phases[-1]["waits"] += 1
            return real_wait(object_list, timeout)

        def recording_run(self, kind, tasks):
            phases.append({"tasks": len(tasks), "failures": 0, "waits": 0})
            return real_run(self, kind, tasks)

        def counting_failure(self, *args, **kwargs):
            phases[-1]["failures"] += 1
            return real_failure(self, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.connection, "wait", counting_wait)
        monkeypatch.setattr(ShardSupervisor, "_run_processes", recording_run)
        monkeypatch.setattr(ShardSupervisor, "_record_failure", counting_failure)
        plan = (
            WorkerFaultPlan(transient_failures=((months[1], 1),))
            if faults else None
        )
        _run(
            archive, simulation, jobs=2, fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.05),
        )
        assert len(phases) == 2
        for phase in phases:
            budget = 3 * (phase["tasks"] + phase["failures"])
            assert phase["waits"] <= budget, phases
        assert sum(p["failures"] for p in phases) == (2 if faults else 0)


class TestRunHealthReport:
    pytestmark = CHAOS

    def test_clean_health(self, clean_campaign):
        health = clean_campaign.health
        assert health.clean
        assert health.coverage == 1.0
        assert health.total_retries == 0
        rendered = render_run_health(health).render()
        assert "Coverage (%)" in rendered
        assert "100.00" in rendered
        assert "clean run" in rendered

    def test_degraded_health_table_names_month(
        self, archive, simulation, months
    ):
        plan = WorkerFaultPlan(crash_months=(months[2],))
        campaign = _run(
            archive, simulation, jobs=1, fault_plan=plan, degrade="partial"
        )
        rendered = render_run_health(campaign.health).render()
        assert months[2] in rendered
        assert "quarantined" in rendered
        assert "75.00" in rendered
        assert "degraded coverage" in rendered

    def test_summary_line(self, archive, simulation, months):
        plan = WorkerFaultPlan(crash_months=(months[0],))
        campaign = _run(
            archive, simulation, jobs=1, fault_plan=plan, degrade="partial"
        )
        summary = campaign.health.summary()
        assert "3/4 months completed" in summary
        assert months[0] in summary

    def test_empty_health_is_full_coverage(self):
        assert RunHealth().coverage == 1.0
        assert RunHealth().clean
