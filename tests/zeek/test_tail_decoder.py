"""Incremental TSV decoding for live tailing (`TailDecoder`).

The contract under test: feeding a serialized log in arbitrary chunk
sizes — including chunks that end mid-line, i.e. a reader racing the
writer — yields exactly the records and IngestReport of a batch read,
and an unterminated trailing line is *buffered*, never dropped or
counted, until its newline (or `finish()`) arrives.
"""

import io

import pytest

from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import (
    ErrorPolicy,
    IngestOptions,
    IngestReport,
    TailDecoder,
    format_ssl_row,
    log_header_text,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(months=2, connections_per_month=120, seed=19)
    ).generate()


@pytest.fixture(scope="module")
def ssl_text(simulation):
    return ssl_log_to_string(simulation.logs.ssl)


@pytest.fixture(scope="module")
def x509_text(simulation):
    return x509_log_to_string(simulation.logs.x509)


def _batch(kind, text, on_error=ErrorPolicy.STRICT):
    report = IngestReport()
    reader = read_ssl_log if kind == "ssl" else read_x509_log
    records = reader(
        io.StringIO(text),
        IngestOptions(report=report, path=f"{kind}.log", on_error=on_error),
    )
    return records, report


def _chunked(kind, text, size, **kwargs):
    decoder = TailDecoder(kind, path=f"{kind}.log", **kwargs)
    records = []
    for start in range(0, len(text), size):
        records.extend(decoder.feed(text[start:start + size]))
    records.extend(decoder.finish())
    return records, decoder.report


def _report_key(report):
    d = report.to_dict()
    d.pop("issues", None)
    return d


class TestChunkedParity:
    @pytest.mark.parametrize("size", [1, 7, 80, 4096])
    @pytest.mark.parametrize("kind", ["ssl", "x509"])
    def test_any_chunking_matches_batch(
        self, kind, size, ssl_text, x509_text
    ):
        text = ssl_text if kind == "ssl" else x509_text
        expect_records, expect_report = _batch(kind, text)
        records, report = _chunked(kind, text, size)
        assert records == expect_records
        assert _report_key(report) == _report_key(expect_report)

    @pytest.mark.parametrize("fast_path", ["auto", "off"])
    def test_fast_and_slow_paths_agree(self, ssl_text, fast_path):
        expect_records, _ = _batch("ssl", ssl_text)
        records, _ = _chunked("ssl", ssl_text, 100, fast_path=fast_path)
        assert records == expect_records

    def test_malformed_line_skipped_like_batch(self, simulation):
        text = log_header_text("ssl")
        text += format_ssl_row(simulation.logs.ssl[0]) + "\n"
        text += "garbage\twith\ttoo\tfew\tfields\n"
        text += format_ssl_row(simulation.logs.ssl[1]) + "\n"
        records, report = _chunked(
            "ssl", text, 9, on_error=ErrorPolicy.SKIP
        )
        assert records == [simulation.logs.ssl[0], simulation.logs.ssl[1]]
        assert report.rows_dropped == 1


class TestMidWriteRead:
    """Satellite: a read that lands mid-write must defer the partial
    trailing line, not drop or miscount it."""

    def test_unterminated_row_is_buffered_not_counted(self, simulation):
        row = format_ssl_row(simulation.logs.ssl[0])
        decoder = TailDecoder("ssl", path="ssl.log")
        assert decoder.feed(log_header_text("ssl")) == []
        half = row[: len(row) // 2]
        assert decoder.feed(half) == []
        assert decoder.pending == half
        assert decoder.report.rows_ok == 0
        assert decoder.report.rows_dropped == 0

    def test_completion_yields_the_full_record(self, simulation):
        row = format_ssl_row(simulation.logs.ssl[0])
        decoder = TailDecoder("ssl", path="ssl.log")
        decoder.feed(log_header_text("ssl"))
        decoder.feed(row[:10])
        records = decoder.feed(row[10:] + "\n")
        assert records == [simulation.logs.ssl[0]]
        assert decoder.pending == ""
        assert decoder.report.rows_ok == 1

    def test_finish_flushes_truncated_final_line(self, simulation):
        """EOF with a pending partial row == the batch reader's
        truncated-final-line semantics: dropped *and accounted*."""
        row = format_ssl_row(simulation.logs.ssl[0])
        decoder = TailDecoder("ssl", path="ssl.log", on_error=ErrorPolicy.SKIP)
        decoder.feed(log_header_text("ssl"))
        decoder.feed(row[: len(row) // 2])  # writer died mid-row
        records = decoder.finish()
        assert records == []
        expect_records, expect_report = _batch(
            "ssl", log_header_text("ssl") + row[: len(row) // 2],
            on_error=ErrorPolicy.SKIP,
        )
        assert expect_records == []
        assert _report_key(decoder.report) == _report_key(expect_report)

    def test_feed_after_finish_rejected(self):
        decoder = TailDecoder("ssl")
        decoder.finish()
        with pytest.raises(ValueError):
            decoder.feed("x")


class TestStateRoundTrip:
    def test_mid_stream_state_resumes_exactly(self, ssl_text):
        expect_records, expect_report = _batch("ssl", ssl_text)
        cut = len(ssl_text) * 2 // 3
        first = TailDecoder("ssl", path="ssl.log")
        records = first.feed(ssl_text[:cut])
        state = first.state_dict()

        second = TailDecoder("ssl", path="ssl.log", count_file=False)
        second.load_state(state)
        second.report.files_read = first.report.files_read
        second.report.rows_ok = first.report.rows_ok
        records += second.feed(ssl_text[cut:])
        records += second.finish()
        assert records == expect_records
        assert second.report.rows_ok == expect_report.rows_ok

    def test_kind_mismatch_rejected(self):
        state = TailDecoder("ssl").state_dict()
        with pytest.raises(ValueError, match="kind"):
            TailDecoder("x509").load_state(state)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TailDecoder("dns")
