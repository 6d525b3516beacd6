"""Tests for the error-policy reader: strict context, skip, quarantine."""

import datetime as dt
import io

import pytest

from repro.zeek import (
    ErrorPolicy,
    IngestOptions,
    IngestReport,
    SslRecord,
    TsvFormatError,
    X509Record,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    write_ssl_log,
    write_x509_log,
)

UTC = dt.timezone.utc

#: Serialized logs carry 7 header lines (#separator … #types), so the
#: first data row is line 8.
FIRST_DATA_LINE = 8


def _ssl_record(**overrides):
    base = dict(
        ts=dt.datetime(2023, 1, 1, 12, 0, 0, tzinfo=UTC),
        uid="CABCDEF",
        id_orig_h="10.0.0.1",
        id_orig_p=51515,
        id_resp_h="192.0.2.1",
        id_resp_p=443,
        version="TLSv12",
        cipher="TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
        server_name="example.com",
        established=True,
        cert_chain_fuids=("F1",),
        client_cert_chain_fuids=(),
        validation_status="ok",
    )
    base.update(overrides)
    return SslRecord(**base)


def _x509_record(**overrides):
    base = dict(
        ts=dt.datetime(2023, 1, 1, 12, 0, 0, tzinfo=UTC),
        fuid="F1",
        fingerprint="ab" * 32,
        version=3,
        serial="0A1B",
        subject="CN=example.com,O=Example",
        issuer="CN=Issuing CA,O=Example Trust",
        not_valid_before=dt.datetime(2022, 6, 1, tzinfo=UTC),
        not_valid_after=dt.datetime(2023, 6, 1, tzinfo=UTC),
        key_alg="rsaEncryption",
        sig_alg="sha256WithRSAEncryption",
        key_length=2048,
        san_dns=("example.com",),
        san_uri=(),
        san_email=(),
        san_ip=(),
    )
    base.update(overrides)
    return X509Record(**base)


def _ssl_text(records=None):
    out = io.StringIO()
    write_ssl_log(records if records is not None else [_ssl_record()], out)
    return out.getvalue()


def _x509_text(records=None):
    out = io.StringIO()
    write_x509_log(records if records is not None else [_x509_record()], out)
    return out.getvalue()


def _mutate_line(text: str, line_number: int, mutate) -> str:
    """Apply `mutate` to one 1-indexed line of serialized log text."""
    lines = text.split("\n")
    lines[line_number - 1] = mutate(lines[line_number - 1])
    return "\n".join(lines)


def _read_ssl(text, policy, report=None, path="ssl.log"):
    return read_ssl_log(
        io.StringIO(text),
        IngestOptions(on_error=policy, report=report, path=path),
    )


class TestErrorPolicyEnum:
    def test_coerce_accepts_strings_and_members(self):
        assert ErrorPolicy.coerce("skip") is ErrorPolicy.SKIP
        assert ErrorPolicy.coerce(ErrorPolicy.STRICT) is ErrorPolicy.STRICT

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown error policy"):
            ErrorPolicy.coerce("lenient")

    def test_leniency_and_capture_flags(self):
        assert not ErrorPolicy.STRICT.lenient
        assert ErrorPolicy.SKIP.lenient and not ErrorPolicy.SKIP.captures_raw
        assert ErrorPolicy.QUARANTINE.captures_raw


class TestStrictContext:
    """Strict stays fail-fast, but every error names path/line/field."""

    def test_bad_field_carries_full_context(self):
        text = _mutate_line(
            _ssl_text(), FIRST_DATA_LINE,
            lambda line: line.replace("51515", "51x15"),
        )
        with pytest.raises(TsvFormatError) as excinfo:
            _read_ssl(text, ErrorPolicy.STRICT, path="/logs/ssl.log")
        err = excinfo.value
        assert err.path == "/logs/ssl.log"
        assert err.line_number == FIRST_DATA_LINE
        assert err.field == "id.orig_p"
        assert "/logs/ssl.log" in str(err)
        assert f"line {FIRST_DATA_LINE}" in str(err)
        assert "id.orig_p" in str(err)

    def test_bad_time_is_wrapped_not_raw_valueerror(self):
        text = _mutate_line(
            _ssl_text(), FIRST_DATA_LINE,
            lambda line: "\t".join(["abc"] + line.split("\t")[1:]),
        )
        with pytest.raises(TsvFormatError, match="bad time value 'abc'") as excinfo:
            _read_ssl(text, ErrorPolicy.STRICT)
        assert excinfo.value.field == "ts"

    def test_overflowing_time_is_wrapped(self):
        text = _mutate_line(
            _ssl_text(), FIRST_DATA_LINE,
            lambda line: "\t".join(["1e400"] + line.split("\t")[1:]),
        )
        with pytest.raises(TsvFormatError, match="bad time value '1e400'"):
            _read_ssl(text, ErrorPolicy.STRICT)

    def test_short_row_names_first_missing_field(self):
        text = _mutate_line(
            _ssl_text(), FIRST_DATA_LINE,
            lambda line: "\t".join(line.split("\t")[:5]),
        )
        with pytest.raises(TsvFormatError) as excinfo:
            _read_ssl(text, ErrorPolicy.STRICT)
        assert excinfo.value.field == "id.resp_p"

    def test_truncated_final_line_raises_with_context(self):
        lines = _ssl_text().rstrip("\n").split("\n")
        assert lines.pop() == "#close"  # the crash loses the footer too
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        with pytest.raises(TsvFormatError, match="truncated") as excinfo:
            _read_ssl("\n".join(lines), ErrorPolicy.STRICT)
        assert excinfo.value.line_number == FIRST_DATA_LINE
        assert excinfo.value.path == "ssl.log"

    def test_path_header_mismatch_names_path_field(self):
        text = _ssl_text().replace("#path\tssl", "#path\tconn")
        with pytest.raises(TsvFormatError) as excinfo:
            _read_ssl(text, ErrorPolicy.STRICT)
        assert excinfo.value.field == "#path"

    def test_reordered_fields_still_raise_under_strict(self):
        corrupted = _swap_first_two_columns(_ssl_text())
        with pytest.raises(TsvFormatError) as excinfo:
            _read_ssl(corrupted, ErrorPolicy.STRICT)
        assert excinfo.value.field == "#fields"


def _swap_first_two_columns(text: str) -> str:
    lines = text.split("\n")
    out = []
    for line in lines:
        if line.startswith(("#fields\t", "#types\t")):
            tag, first, second, *rest = line.split("\t")
            out.append("\t".join([tag, second, first] + rest))
        elif line and not line.startswith("#"):
            first, second, *rest = line.split("\t")
            out.append("\t".join([second, first] + rest))
        else:
            out.append(line)
    return "\n".join(out)


class TestSkipPolicy:
    def test_bad_rows_are_dropped_and_counted(self):
        records = [
            _ssl_record(uid=f"C{i}", ts=dt.datetime(2023, 1, 1 + i, tzinfo=UTC))
            for i in range(4)
        ]
        text = _mutate_line(
            _ssl_text(records), FIRST_DATA_LINE + 1,
            lambda line: line.replace("51515", "5x515"),
        )
        report = IngestReport()
        kept = _read_ssl(text, ErrorPolicy.SKIP, report)
        assert [r.uid for r in kept] == ["C0", "C2", "C3"]
        assert report.rows_ok == 3
        assert report.rows_dropped == 1
        assert report.rows_total == 4
        assert report.dropped_by_category == {"bad-field": 1}
        assert report.dropped_by_path == {"ssl.log": 1}
        assert report.drop_rate == pytest.approx(0.25)

    def test_skip_does_not_capture_raw(self):
        text = _mutate_line(
            _ssl_text(), FIRST_DATA_LINE,
            lambda line: line.replace("51515", "5x515"),
        )
        report = IngestReport()
        _read_ssl(text, ErrorPolicy.SKIP, report)
        (issue,) = report.issues
        assert issue.raw is None
        assert issue.field == "id.orig_p"
        assert report.quarantined == []

    def test_garbage_line_dropped_as_cell_count(self):
        text = _ssl_text()
        lines = text.split("\n")
        lines.insert(FIRST_DATA_LINE - 1, "�GARBLE�NO�TABS")
        report = IngestReport()
        kept = _read_ssl("\n".join(lines), ErrorPolicy.SKIP, report)
        assert len(kept) == 1
        assert report.dropped_by_category == {"cell-count": 1}

    def test_truncated_final_line_dropped_and_flagged(self):
        records = [_ssl_record(uid="C0"), _ssl_record(uid="C1")]
        text = ssl_log_to_string(records)
        lines = text.rstrip("\n").split("\n")
        assert lines[-1] == "#close"
        lines.pop()  # the crash also loses #close
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        report = IngestReport()
        kept = _read_ssl("\n".join(lines), ErrorPolicy.SKIP, report)
        assert [r.uid for r in kept] == ["C0"]
        assert report.truncated_final_lines == 1
        assert report.files_missing_close == 1
        assert report.dropped_by_category == {"truncated-final-line": 1}

    def test_missing_close_alone_is_not_an_error(self):
        text = _ssl_text().replace("#close\n", "")
        report = IngestReport()
        kept = _read_ssl(text, ErrorPolicy.SKIP, report)
        assert len(kept) == 1
        assert report.rows_dropped == 0
        assert report.files_missing_close == 1
        # Strict tolerates it too: a missing footer loses no data.
        assert len(_read_ssl(text, ErrorPolicy.STRICT)) == 1

    def test_reordered_fields_recovered_losslessly(self):
        records = [_ssl_record(uid="C0"), _ssl_record(uid="C1", established=False)]
        corrupted = _swap_first_two_columns(ssl_log_to_string(records))
        report = IngestReport()
        kept = _read_ssl(corrupted, ErrorPolicy.SKIP, report)
        assert kept == records
        assert report.rows_dropped == 0
        assert report.header_recoveries == 1
        assert any(i.category == "reordered-fields" for i in report.issues)

    def test_path_mismatch_rejects_whole_file(self):
        text = _ssl_text().replace("#path\tssl", "#path\tconn")
        report = IngestReport()
        kept = _read_ssl(text, ErrorPolicy.SKIP, report)
        assert kept == []
        assert report.rows_dropped == 1
        assert any(i.category == "path-mismatch" for i in report.issues)


class TestQuarantinePolicy:
    def test_raw_lines_are_captured(self):
        bad = None

        def flip(line):
            nonlocal bad
            bad = line.replace("51515", "5x515")
            return bad

        text = _mutate_line(_ssl_text(), FIRST_DATA_LINE, flip)
        report = IngestReport()
        _read_ssl(text, ErrorPolicy.QUARANTINE, report, path="a/ssl.log")
        (issue,) = report.quarantined
        assert issue.raw == bad
        assert issue.path == "a/ssl.log"
        assert issue.line_number == FIRST_DATA_LINE
        assert issue.category == "bad-field"
        assert issue.to_dict()["raw"] == bad

    def test_issue_cap_keeps_counters_exact(self):
        report = IngestReport(max_recorded_issues=2)
        for n in range(5):
            report.record_drop(
                path="ssl.log", line_number=n + 8, category="bad-field",
                reason="x", raw="line",
            )
        assert report.rows_dropped == 5
        assert len(report.issues) == 2
        assert report.issues_truncated


class TestValidationStatusRoundTrip:
    """'-' (unset) vs '(empty)' (observed empty) must survive the cycle."""

    @pytest.mark.parametrize("status", [None, "", "ok", "self signed certificate"])
    def test_round_trip(self, status):
        record = _ssl_record(validation_status=status)
        (back,) = _read_ssl(_ssl_text([record]), ErrorPolicy.STRICT)
        assert back.validation_status == status
        assert back == record


class TestX509Reader:
    def test_bad_key_length_context(self):
        text = _x509_text().replace("\t2048\t", "\t2O48\t")
        report = IngestReport()
        kept = read_x509_log(
            io.StringIO(text),
            IngestOptions(
                on_error=ErrorPolicy.QUARANTINE, report=report, path="x509.log"
            ),
        )
        assert kept == []
        (issue,) = report.issues
        assert issue.field == "certificate.key_length"
        with pytest.raises(TsvFormatError) as excinfo:
            read_x509_log(io.StringIO(text), IngestOptions(path="x509.log"))
        assert excinfo.value.field == "certificate.key_length"

    def test_report_merges_across_files(self):
        report = IngestReport()
        _read_ssl(_ssl_text(), ErrorPolicy.SKIP, report, path="ssl.log")
        read_x509_log(
            io.StringIO(_x509_text()),
            IngestOptions(on_error=ErrorPolicy.SKIP, report=report, path="x509.log"),
        )
        assert report.files_read == 2
        assert report.rows_ok == 2
        assert report.clean


class TestReportMerge:
    def test_merge_folds_counters_and_issues(self):
        a, b = IngestReport(), IngestReport()
        a.record_row()
        b.record_drop(
            path="x509.log", line_number=9, category="bad-field", reason="r"
        )
        b.files_read = 1
        b.truncated_final_lines = 1
        a.merge(b)
        assert a.rows_total == 2
        assert a.rows_dropped == 1
        assert a.truncated_final_lines == 1
        assert a.dropped_by_path == {"x509.log": 1}
        assert len(a.issues) == 1
