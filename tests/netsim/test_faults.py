"""Tests for the deterministic fault-injection harness."""

import io

import pytest

from repro.netsim import (
    FaultPlan,
    LogCorruptor,
    ScenarioConfig,
    TrafficGenerator,
)
from repro.zeek import (
    ErrorPolicy,
    IngestOptions,
    IngestReport,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)


@pytest.fixture(scope="module")
def logs():
    return TrafficGenerator(
        ScenarioConfig(months=3, connections_per_month=250, seed=41)
    ).generate().logs


@pytest.fixture(scope="module")
def ssl_text(logs):
    return ssl_log_to_string(logs.ssl)


@pytest.fixture(scope="module")
def x509_text(logs):
    return x509_log_to_string(logs.x509)


def _read(text, kind, policy=ErrorPolicy.SKIP):
    report = IngestReport()
    reader = read_ssl_log if kind == "ssl" else read_x509_log
    records = reader(
        io.StringIO(text),
        IngestOptions(on_error=policy, report=report, path=f"{kind}.log"),
    )
    return records, report


class TestFaultPlan:
    def test_uniform_splits_rate(self):
        plan = FaultPlan.uniform(0.1, seed=3)
        assert plan.flip_rate == pytest.approx(0.04)
        assert plan.garbage_rate == pytest.approx(0.02)
        assert plan.duplicate_rate == pytest.approx(0.02)
        assert plan.drop_x509_rate == pytest.approx(0.02)
        assert plan.reorder_columns and plan.truncate_final_record
        assert plan.drop_close

    def test_uniform_zero_is_a_noop_plan(self):
        plan = FaultPlan.uniform(0.0)
        assert not plan.reorder_columns
        assert not plan.truncate_final_record

    def test_uniform_rejects_negative(self):
        with pytest.raises(ValueError):
            FaultPlan.uniform(-0.1)

    def test_scaled(self):
        plan = FaultPlan.uniform(0.1).scaled(0.5)
        assert plan.flip_rate == pytest.approx(0.02)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown log kind"):
            LogCorruptor(FaultPlan()).corrupt("", "conn")


class TestDeterminism:
    def test_same_plan_same_output(self, ssl_text):
        plan = FaultPlan.uniform(0.08, seed=9)
        out_a, sum_a = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        out_b, sum_b = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        assert out_a == out_b
        assert sum_a == sum_b

    def test_call_order_independent(self, ssl_text, x509_text):
        plan = FaultPlan.uniform(0.08, seed=9)
        ssl_first, _ = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        corruptor = LogCorruptor(plan)
        corruptor.corrupt(x509_text, "x509")  # interleave another call
        ssl_second, _ = corruptor.corrupt(ssl_text, "ssl")
        assert ssl_first == ssl_second

    def test_different_seeds_differ(self, ssl_text):
        out_a, _ = LogCorruptor(FaultPlan.uniform(0.08, seed=1)).corrupt(
            ssl_text, "ssl"
        )
        out_b, _ = LogCorruptor(FaultPlan.uniform(0.08, seed=2)).corrupt(
            ssl_text, "ssl"
        )
        assert out_a != out_b


class TestIndividualFaults:
    def test_noop_plan_is_identity(self, ssl_text):
        out, summary = LogCorruptor(FaultPlan()).corrupt(ssl_text, "ssl")
        assert out == ssl_text
        assert summary.expected_reader_drops == 0

    def test_flips_drop_exactly_flipped_lines(self, ssl_text):
        plan = FaultPlan(seed=5, flip_rate=0.05)
        out, summary = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        assert summary.flipped_lines > 0
        records, report = _read(out, "ssl")
        assert report.rows_dropped == summary.flipped_lines
        assert report.dropped_by_category == {"bad-field": summary.flipped_lines}

    def test_garbage_lines_always_fail_cell_count(self, ssl_text):
        plan = FaultPlan(seed=5, garbage_rate=0.05)
        out, summary = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        assert summary.garbage_lines > 0
        records, report = _read(out, "ssl")
        assert report.dropped_by_category == {"cell-count": summary.garbage_lines}

    def test_duplicates_parse_fine(self, ssl_text):
        clean, _ = _read(ssl_text, "ssl")
        plan = FaultPlan(seed=5, duplicate_rate=0.1)
        out, summary = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        records, report = _read(out, "ssl")
        assert summary.duplicated_lines > 0
        assert report.rows_dropped == 0
        assert len(records) == len(clean) + summary.duplicated_lines

    def test_x509_drops_record_dangling_fuids(self, x509_text):
        clean, _ = _read(x509_text, "x509")
        plan = FaultPlan(seed=5, drop_x509_rate=0.1)
        out, summary = LogCorruptor(plan).corrupt(x509_text, "x509")
        records, report = _read(out, "x509")
        assert summary.dropped_x509_rows > 0
        assert len(records) == len(clean) - summary.dropped_x509_rows
        assert report.rows_dropped == 0  # surviving rows are well-formed
        surviving = {r.fuid for r in records}
        assert summary.dropped_fuids
        assert not (summary.dropped_fuids & surviving)

    def test_x509_rate_ignored_for_ssl_logs(self, ssl_text):
        plan = FaultPlan(seed=5, drop_x509_rate=0.5)
        out, summary = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        assert out == ssl_text
        assert summary.dropped_x509_rows == 0

    def test_reorder_is_lossless_for_lenient_reader(self, ssl_text):
        clean, _ = _read(ssl_text, "ssl")
        plan = FaultPlan(seed=5, reorder_columns=True)
        out, summary = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        assert summary.reordered_columns
        assert out != ssl_text
        records, report = _read(out, "ssl")
        assert records == clean
        assert report.header_recoveries == 1
        assert report.rows_dropped == 0

    def test_truncation_cuts_exactly_one_row_and_the_tail(self, ssl_text):
        clean, _ = _read(ssl_text, "ssl")
        plan = FaultPlan(seed=5, truncate_final_record=True)
        out, summary = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        assert summary.truncated_records == 1
        assert not out.endswith("\n")
        records, report = _read(out, "ssl")
        assert len(records) == len(clean) - 1
        assert report.truncated_final_lines == 1
        assert report.files_missing_close == 1  # the tail took #close with it

    def test_drop_close_only_loses_the_footer(self, ssl_text):
        clean, _ = _read(ssl_text, "ssl")
        plan = FaultPlan(seed=5, drop_close=True)
        out, summary = LogCorruptor(plan).corrupt(ssl_text, "ssl")
        assert summary.dropped_close
        assert "#close" not in out
        records, report = _read(out, "ssl")
        assert records == clean
        assert report.files_missing_close == 1
        assert report.rows_dropped == 0


class TestExactAccounting:
    """The harness's reason to exist: planted faults == reader drops."""

    @pytest.mark.parametrize("rate", [0.02, 0.05, 0.10])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_mixed_plan_accounts_exactly(self, ssl_text, x509_text, rate, seed):
        plan = FaultPlan.uniform(rate, seed=seed)
        ssl_out, x509_out, summary = LogCorruptor(plan).corrupt_logs(
            ssl_text, x509_text
        )
        options = IngestOptions(on_error=ErrorPolicy.SKIP, report=IngestReport())
        read_ssl_log(io.StringIO(ssl_out), options.for_path("ssl.log"))
        read_x509_log(io.StringIO(x509_out), options.for_path("x509.log"))
        report = options.report
        assert report.rows_dropped == summary.expected_reader_drops
        assert report.truncated_final_lines == summary.truncated_records == 2

    def test_merge_sums_counters(self):
        plan = FaultPlan.uniform(0.05, seed=3)
        a = LogCorruptor(plan).corrupt("", "ssl")[1]
        from repro.netsim import CorruptionSummary

        left = CorruptionSummary(
            flipped_lines=2, truncated_records=1, dropped_fuids={"A"}
        )
        right = CorruptionSummary(
            garbage_lines=3, truncated_records=1, dropped_fuids={"B"}
        )
        merged = left.merge(right)
        assert merged.expected_reader_drops == 2 + 3 + 2
        assert merged.dropped_fuids == {"A", "B"}
        assert a.expected_reader_drops == 0  # empty input: nothing planted
