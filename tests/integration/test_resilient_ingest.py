"""End-to-end resilience: a fault-injected campaign must still yield
the paper's headline statistics, with every dropped line accounted for.
"""

import io

import pytest

from repro.core import protocol
from repro.core.streaming import StreamingAnalyzer
from repro.core.study import CampusStudy
from repro.netsim import FaultPlan, LogCorruptor
from repro.zeek import (
    ErrorPolicy,
    IngestOptions,
    IngestReport,
    TsvFormatError,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)

#: The acceptance scenario: ~5% of all lines faulted.
FAULT_RATE = 0.05
CONFIG = dict(months=4, connections_per_month=400, seed=29)


def _result(enriched, name):
    return protocol.run_analyses(enriched, [name])[name].result()


@pytest.fixture(scope="module")
def clean_study():
    return CampusStudy(**CONFIG)


@pytest.fixture(scope="module")
def quarantine_study():
    return CampusStudy(
        **CONFIG,
        options=IngestOptions(on_error="quarantine"),
        fault_plan=FaultPlan.uniform(FAULT_RATE, seed=29),
    )


class TestFaultedCampaignRecovers:
    @pytest.mark.parametrize("policy", ["skip", "quarantine"])
    def test_run_completes_under_lenient_policies(self, policy):
        study = CampusStudy(
            **CONFIG, options=IngestOptions(on_error=policy),
            fault_plan=FaultPlan.uniform(FAULT_RATE, seed=29),
        )
        result = study.run()
        assert result.ingest_report is not None
        assert result.ingest_report.rows_dropped > 0
        assert len(result.dataset.connections) > 0

    def test_figure1_recovered_within_tolerance(self, clean_study, quarantine_study):
        clean = {
            s.label: s.share
            for s in _result(clean_study.enriched, "figure1")
        }
        faulted = {
            s.label: s.share
            for s in _result(quarantine_study.enriched, "figure1")
        }
        assert set(faulted) == set(clean)  # no month lost entirely
        for label, share in clean.items():
            assert faulted[label] == pytest.approx(share, abs=0.05)

    def test_table1_recovered_within_tolerance(self, clean_study, quarantine_study):
        clean = {
            r.label: (r.total, r.mutual)
            for r in _result(clean_study.enriched, "table1")
        }
        faulted = {
            r.label: (r.total, r.mutual)
            for r in _result(quarantine_study.enriched, "table1")
        }
        assert set(faulted) == set(clean)
        for label, (total, mutual) in clean.items():
            got_total, got_mutual = faulted[label]
            assert abs(got_total - total) <= max(2, 0.1 * total), label
            assert abs(got_mutual - mutual) <= max(2, 0.1 * mutual), label

    def test_every_dropped_line_accounted_exactly(self, quarantine_study):
        result = quarantine_study.run()
        report, corruption = result.ingest_report, result.corruption
        assert report.rows_dropped == corruption.expected_reader_drops
        assert sum(report.dropped_by_category.values()) == report.rows_dropped
        assert sum(report.dropped_by_path.values()) == report.rows_dropped
        # Quarantine captured the raw text of every dropped row.
        assert len(report.quarantined) == report.rows_dropped
        # Dangling fuids in the join come from the planted x509 drops.
        assert corruption.dropped_x509_rows > 0
        assert result.dataset.dangling_fuid_refs > 0

    def test_ingest_health_table_joins_the_report(self, quarantine_study):
        tables = quarantine_study.all_tables()
        health = [t for t in tables if t.title == "Ingest health"]
        assert len(health) == 1
        rendered = health[0].render()
        assert "Rows dropped" in rendered
        assert "dangling" in rendered.lower()


class TestStrictCorpusContext:
    """Strict mode names path, line, and field for every fault type
    that is an error (duplicates, x509 drops, and a missing #close are
    legal TSV, so strict parses them fine)."""

    @pytest.fixture(scope="class")
    def texts(self):
        study = CampusStudy(months=2, connections_per_month=150, seed=31)
        logs = study.run().simulation.logs
        return ssl_log_to_string(logs.ssl), x509_log_to_string(logs.x509)

    @pytest.mark.parametrize(
        "plan_kwargs",
        [
            dict(flip_rate=0.05),
            dict(garbage_rate=0.05),
            dict(truncate_final_record=True),
            dict(reorder_columns=True),
        ],
        ids=["flip", "garbage", "truncate", "reorder"],
    )
    @pytest.mark.parametrize("kind", ["ssl", "x509"])
    def test_erroring_faults_carry_full_context(self, texts, plan_kwargs, kind):
        text = texts[0] if kind == "ssl" else texts[1]
        corrupted, summary = LogCorruptor(
            FaultPlan(seed=31, **plan_kwargs)
        ).corrupt(text, kind)
        assert corrupted != text
        reader = read_ssl_log if kind == "ssl" else read_x509_log
        with pytest.raises(TsvFormatError) as excinfo:
            reader(
                io.StringIO(corrupted),
                IngestOptions(path=f"/archive/{kind}.log"),
            )
        err = excinfo.value
        assert err.path == f"/archive/{kind}.log"
        assert err.line_number is not None and err.line_number > 0
        assert err.field is not None
        for fragment in (err.path, f"line {err.line_number}", err.field):
            assert fragment in str(err)

    @pytest.mark.parametrize(
        "plan_kwargs",
        [dict(duplicate_rate=0.1), dict(drop_close=True)],
        ids=["duplicate", "drop-close"],
    )
    def test_benign_faults_parse_under_strict(self, texts, plan_kwargs):
        corrupted, _ = LogCorruptor(FaultPlan(seed=31, **plan_kwargs)).corrupt(
            texts[0], "ssl"
        )
        records = read_ssl_log(io.StringIO(corrupted))
        assert records


class TestStreamingResumeOnFaultedLogs:
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        study = CampusStudy(months=4, connections_per_month=300, seed=37)
        simulation = study.run().simulation
        ssl_out, x509_out, _ = LogCorruptor(
            FaultPlan.uniform(FAULT_RATE, seed=37)
        ).corrupt_logs(
            ssl_log_to_string(simulation.logs.ssl),
            x509_log_to_string(simulation.logs.x509),
        )
        report = IngestReport()
        options = IngestOptions(on_error=ErrorPolicy.SKIP, report=report)
        ssl = read_ssl_log(io.StringIO(ssl_out), options)
        x509 = read_x509_log(io.StringIO(x509_out), options)

        months = sorted({f"{r.ts:%Y-%m}" for r in ssl})
        by_month = {
            m: (
                [r for r in ssl if f"{r.ts:%Y-%m}" == m],
                [r for r in x509 if f"{r.ts:%Y-%m}" == m],
            )
            for m in months
        }

        uninterrupted = StreamingAnalyzer(simulation.trust_bundle)
        for m in months:
            uninterrupted.add_month(*by_month[m])

        ckpt = tmp_path / "resume.json"
        first = StreamingAnalyzer(simulation.trust_bundle)
        for m in months[:2]:
            first.add_month(*by_month[m])
        first.write_checkpoint(ckpt)
        resumed = StreamingAnalyzer.from_checkpoint(simulation.trust_bundle, ckpt)
        for m in months[2:]:
            resumed.add_month(*by_month[m])

        resumed_snapshot = resumed.to_snapshot()
        uninterrupted_snapshot = uninterrupted.to_snapshot()
        # Metrics are compared separately: timers are wall-clock and the
        # resumed path wrote a checkpoint the uninterrupted one did not.
        resumed_metrics = resumed_snapshot.pop("metrics")
        uninterrupted_metrics = uninterrupted_snapshot.pop("metrics")
        assert resumed_snapshot == uninterrupted_snapshot
        # The deterministic side of the metrics survives the resume.
        for counter in ("streaming.ssl_records", "streaming.x509_records"):
            assert resumed_metrics["counters"][counter] == \
                uninterrupted_metrics["counters"][counter]
        assert resumed_metrics["counters"]["streaming.checkpoint_writes"] == 1
        # Dropped x509 rows surface as dangling fuid references.
        assert resumed.dropped_dangling_fuid > 0


class TestCliSmoke:
    def test_study_ingest_health_table(self, capsys):
        from repro.cli import main

        code = main([
            "study", "--months", "2", "--cpm", "150", "--seed", "31",
            "--on-error", "quarantine", "--fault-rate", "0.05",
            "--table", "ingest-health",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ingest health" in out
        assert "Rows dropped" in out

    def test_strict_fault_rate_warns(self, capsys):
        from repro.cli import build_parser, cmd_study

        args = build_parser().parse_args([
            "study", "--months", "1", "--cpm", "50", "--seed", "31",
            "--fault-rate", "0.05", "--table", "table1",
        ])
        with pytest.raises(TsvFormatError):
            cmd_study(args)
        assert "warning" in capsys.readouterr().err