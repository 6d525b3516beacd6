"""Tests for rotated/gzipped log archives."""

import gzip
import pickle

import pytest

from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import TsvFormatError, files
from repro.zeek.files import (
    LogsSource,
    TsvDirectorySource,
    read_logs_directory,
    write_rotated_logs,
)
from repro.zeek.ingest import IngestOptions, IngestReport
from repro.zeek import tsv
from repro.zeek.tsv import read_x509_log


@pytest.fixture(scope="module")
def logs():
    result = TrafficGenerator(
        ScenarioConfig(months=3, connections_per_month=250, seed=51)
    ).generate()
    return result.logs


class TestRotation:
    def test_one_file_per_month_per_stream(self, logs, tmp_path):
        written = write_rotated_logs(logs, tmp_path, compress=False)
        names = sorted(p.name for p in written)
        ssl_files = [n for n in names if n.startswith("ssl.")]
        x509_files = [n for n in names if n.startswith("x509.")]
        assert len(ssl_files) == 3
        assert 1 <= len(x509_files) <= 3
        assert "ssl.2022-05.log" in names
        assert "ssl.2022-07.log" in names

    def test_round_trip_plain(self, logs, tmp_path):
        write_rotated_logs(logs, tmp_path, compress=False)
        loaded = read_logs_directory(tmp_path)
        assert len(loaded.ssl) == len(logs.ssl)
        assert len(loaded.x509) == len(logs.x509)
        assert {r.uid for r in loaded.ssl} == {r.uid for r in logs.ssl}
        assert {r.fingerprint for r in loaded.x509} == {
            r.fingerprint for r in logs.x509
        }

    def test_round_trip_gzip(self, logs, tmp_path):
        written = write_rotated_logs(logs, tmp_path, compress=True)
        assert all(p.suffix == ".gz" for p in written)
        # Files are genuinely gzipped.
        with gzip.open(written[0], "rt") as f:
            assert f.readline().startswith("#separator")
        loaded = read_logs_directory(tmp_path)
        assert len(loaded.ssl) == len(logs.ssl)

    def test_mixed_plain_and_gzip(self, logs, tmp_path):
        # First month gzipped (archived), later months plain (live).
        write_rotated_logs(logs, tmp_path, compress=True)
        plain_dir = tmp_path / "plain"
        write_rotated_logs(logs, plain_dir, compress=False)
        (plain_dir / "ssl.2022-05.log").rename(tmp_path / "extra-ignored.log")
        loaded = read_logs_directory(tmp_path)
        assert len(loaded.ssl) == len(logs.ssl)

    def test_records_sorted_by_timestamp(self, logs, tmp_path):
        write_rotated_logs(logs, tmp_path)
        loaded = read_logs_directory(tmp_path)
        timestamps = [r.ts for r in loaded.ssl]
        assert timestamps == sorted(timestamps)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(TsvFormatError):
            read_logs_directory(tmp_path)

    def test_analysis_on_reloaded_archive(self, logs, tmp_path):
        from repro.core.dataset import MtlsDataset

        write_rotated_logs(logs, tmp_path)
        loaded = read_logs_directory(tmp_path)
        dataset = MtlsDataset.from_logs(loaded)
        direct = MtlsDataset.from_logs(logs)
        assert len(dataset) == len(direct)
        assert set(dataset.certificate_profiles()) == set(
            direct.certificate_profiles()
        )


@pytest.fixture(scope="module")
def rotated(logs, tmp_path_factory):
    directory = tmp_path_factory.mktemp("rotated")
    write_rotated_logs(logs, directory, compress=False)
    return directory


@pytest.fixture(scope="module")
def corrupt_rotated(logs, tmp_path_factory):
    """A rotated archive whose last x509 file has one bad timestamp."""
    directory = tmp_path_factory.mktemp("corrupt")
    write_rotated_logs(logs, directory, compress=False)
    path = sorted(directory.glob("x509.*.log"))[-1]
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[row] = "not-a-timestamp" + lines[row][lines[row].index("\t"):]
    path.write_text("".join(lines), encoding="utf-8")
    return directory


@pytest.fixture()
def x509_decodes(monkeypatch):
    """Paths handed to ``read_x509_log`` by the files module, in order."""
    decoded = []

    def counting_read_x509_log(source, options=None, **kwargs):
        decoded.append(options.path)
        return read_x509_log(source, options, **kwargs)

    monkeypatch.setattr(files, "read_x509_log", counting_read_x509_log)
    return decoded


class TestBroadcastX509DecodedOnce:
    """Every shard of one source is served from one x509 decode."""

    def test_every_month_served_from_one_decode(self, rotated, x509_decodes):
        source = TsvDirectorySource(rotated)
        options = IngestOptions()
        months = source.months()
        reads = [source.read_month(month, options).x509 for month in months]
        reads.append(source.read_month(months[0], options).x509)
        reads.append(source.stream_month(months[-1], options).read_x509())
        assert len(x509_decodes) == len(list(rotated.glob("x509.*")))
        assert len(months) == 3
        first = reads[0]
        assert first
        for other in reads[1:]:
            assert other == first
            assert other is not first
            assert all(a is b for a, b in zip(other, first))

    def test_reports_are_fresh_copies_of_the_decode(self, corrupt_rotated):
        options = IngestOptions(on_error="quarantine")
        source = TsvDirectorySource(corrupt_rotated)
        months = source.months()
        shards = [source.read_month(month, options) for month in months]
        stream = source.stream_month(months[0], options)
        streamed = stream.read_x509()
        reports = [shard.x509_report for shard in shards] + [stream.x509_report]
        assert len({id(report) for report in reports}) == len(reports)

        fresh = TsvDirectorySource(corrupt_rotated).read_month(months[1], options)
        assert fresh.x509_report.rows_dropped == 1
        assert fresh.x509_report.quarantined
        for shard in shards:
            assert shard.x509 == fresh.x509
        assert streamed == fresh.x509
        for report in reports:
            assert report.to_dict() == fresh.x509_report.to_dict()
        # Mutating one shard's report leaves the others alone.
        reports[0].merge(fresh.x509_report)
        assert reports[1].to_dict() == fresh.x509_report.to_dict()
        assert source.read_month(months[0], options).x509_report.to_dict() == (
            fresh.x509_report.to_dict()
        )

    def test_decode_settings_change_forces_a_fresh_decode(
        self, rotated, x509_decodes, monkeypatch
    ):
        # Small read buffers: every batch decode spans many chunks.
        monkeypatch.setattr(tsv, "BATCH_CHUNK_CHARS", 4096)
        source = TsvDirectorySource(rotated)
        month = source.months()[0]
        files_per_decode = len(list(rotated.glob("x509.*")))
        reads = []
        for options in (
            IngestOptions(fast_path="auto"),
            IngestOptions(fast_path="auto"),
            IngestOptions(fast_path="off"),
            IngestOptions(fast_path="auto"),
            IngestOptions(fast_path="auto", on_error="skip"),
        ):
            reads.append(source.read_month(month, options).x509)
        assert len(x509_decodes) == 4 * files_per_decode
        assert all(read == reads[0] for read in reads)

    def test_strict_error_repeats_for_every_month(
        self, corrupt_rotated, x509_decodes
    ):
        source = TsvDirectorySource(corrupt_rotated)
        options = IngestOptions()
        months = source.months()
        errors = []
        for month in months:
            with pytest.raises(TsvFormatError) as info:
                source.read_month(month, options)
            errors.append(info.value)
        with pytest.raises(TsvFormatError) as info:
            source.stream_month(months[0], options).read_x509()
        errors.append(info.value)
        contexts = {
            (str(e), e.path, e.line_number, e.field, e.reason) for e in errors
        }
        assert len(contexts) == 1
        (context,) = contexts
        assert context[1] == str(sorted(corrupt_rotated.glob("x509.*"))[-1])
        assert context[2] is not None
        assert context[3] == "ts"
        # Nothing was kept from the failed decodes: every month re-read.
        assert x509_decodes.count(context[1]) == len(errors)

    def test_pickle_drops_the_decode(self, rotated, x509_decodes):
        source = TsvDirectorySource(rotated)
        options = IngestOptions()
        month = source.months()[0]
        x509 = source.read_month(month, options).x509
        payload = pickle.dumps(source)
        assert payload == pickle.dumps(TsvDirectorySource(rotated))
        assert x509[0].fingerprint.encode() not in payload
        clone = pickle.loads(payload)
        decodes = len(x509_decodes)
        assert clone.read_month(month, options).x509 == x509
        assert len(x509_decodes) == 2 * decodes


class TestLogsSource:
    """The in-memory capture serves the shards of its rotated archive."""

    def test_serves_the_rotated_archives_shards(self, logs, rotated):
        archive = TsvDirectorySource(rotated)
        source = LogsSource(logs)
        options = IngestOptions()
        assert source.months() == archive.months()
        for month in source.months():
            shard = source.read_month(month, options)
            expected = archive.read_month(month, options)
            assert [repr(r) for r in shard.ssl] == [repr(r) for r in expected.ssl]
            assert [repr(r) for r in shard.x509] == [
                repr(r) for r in expected.x509
            ]
            # The records were ingested before they reached the source.
            assert shard.ssl_report.to_dict() == IngestReport().to_dict()
            assert shard.x509_report.to_dict() == IngestReport().to_dict()

    def test_every_shard_gets_fresh_lists_and_reports(self, logs):
        source = LogsSource(logs)
        month = source.months()[0]
        first = source.read_month(month, IngestOptions())
        first.ssl.clear()
        first.x509.clear()
        first.ssl_report.record_row()
        second = source.read_month(month, IngestOptions())
        assert second.ssl and second.x509
        assert second.ssl_report.rows_ok == 0

    def test_unknown_month_lists_known(self, logs):
        with pytest.raises(KeyError, match="have: 2022-05"):
            LogsSource(logs).read_month("1999-01", IngestOptions())
