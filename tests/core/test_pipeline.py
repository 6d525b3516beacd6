"""Intra-shard pipelining determinism: pipelined == serial, always.

The pipelining contract (`repro.core.pipeline` + `_ShardStream` in
`repro.core.parallel`): streaming decoded ssl batches into
scan/enrich/analyze while the file is still being read changes *when*
work happens, never *what* comes out. Pinned here:

* every registry table, ingest report, and data-derived counter is
  byte-identical between ``pipeline="on"`` and ``pipeline="off"``, at
  any job count;
* the ``pipeline.*`` counters themselves are deterministic across job
  counts (they are emitted only in the read-every-month scan phase);
* an out-of-ts-order archive trips the order guard, falls back to the
  sorted serial rebuild, and still produces identical tables;
* error parity: a strict-mode ingest failure surfaces with exactly the
  serial path's error context, including ssl-error-wins precedence when
  both logs of a month are corrupt;
* a batch-mode `TailDecoder` checkpoint taken mid-batch resumes with no
  duplicated and no lost rows;
* a tiny `CertFactCache` forced to evict mid-batch still labels every
  connection identically to the uncached reference;
* the structural invariant the per-batch update interleaving relies
  on: no registered analysis consumes both streams, and each folds
  connections only in its batch method.
"""

import gzip
import io

import pytest

from repro.core import protocol
from repro.core.dataset import MtlsDataset
from repro.core.enrich import AssociationRules, Enricher, new_fact_cache
from repro.core.parallel import _ExecutorConfig, _ShardStream, analyze_directory
from repro.core.pipeline import BatchFeed, Pipeline
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import (
    ErrorPolicy,
    IngestOptions,
    TailDecoder,
    TsvFormatError,
    read_ssl_log,
    ssl_log_to_string,
)
from repro.zeek.files import TsvDirectorySource, write_rotated_logs

pytestmark = pytest.mark.usefixtures("supervision_watchdog")


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(seed=17, months=3, connections_per_month=140)
    ).generate()


@pytest.fixture(scope="module")
def archive(simulation, tmp_path_factory):
    directory = tmp_path_factory.mktemp("pipeline-archive")
    write_rotated_logs(simulation.logs, directory)
    return directory


def _run(simulation, directory, *, jobs=1, pipeline="auto", on_error="strict"):
    return analyze_directory(
        directory,
        bundle=simulation.trust_bundle,
        ct_log=simulation.ct_log,
        options=IngestOptions(on_error=on_error),
        jobs=jobs,
        pipeline=pipeline,
    )


def _tables(campaign):
    return {name: str(p.finalize()) for name, p in campaign.partials.items()}


def _data_counters(campaign):
    return {
        name: value
        for name, value in campaign.metrics.counters.items()
        if not name.startswith("pipeline.")
    }


def _pipeline_counters(campaign):
    return {
        name: value
        for name, value in campaign.metrics.counters.items()
        if name.startswith("pipeline.")
    }


@pytest.fixture(scope="module")
def campaigns(simulation, archive):
    """The four (pipeline, jobs) corners, run once for the module."""
    return {
        ("on", 1): _run(simulation, archive, pipeline="on", jobs=1),
        ("off", 1): _run(simulation, archive, pipeline="off", jobs=1),
        ("on", 4): _run(simulation, archive, pipeline="on", jobs=4),
        ("off", 4): _run(simulation, archive, pipeline="off", jobs=4),
    }


class TestByteIdentical:
    def test_all_tables_identical(self, campaigns):
        baseline = _tables(campaigns[("off", 1)])
        assert len(baseline) >= 24
        for key in (("on", 1), ("on", 4), ("off", 4)):
            tables = _tables(campaigns[key])
            assert tables.keys() == baseline.keys()
            for name in baseline:
                assert tables[name] == baseline[name], (key, name)

    def test_ingest_and_dangling_accounting_identical(self, campaigns):
        baseline = campaigns[("off", 1)]
        for key in (("on", 1), ("on", 4), ("off", 4)):
            campaign = campaigns[key]
            assert campaign.ingest.to_dict() == baseline.ingest.to_dict(), key
            assert campaign.dangling_fuid_refs == baseline.dangling_fuid_refs
            assert campaign.months == baseline.months

    def test_pipelining_actually_engaged(self, campaigns):
        counters = _pipeline_counters(campaigns[("on", 1)])
        assert counters.get("pipeline.shards") == len(
            campaigns[("on", 1)].months
        )
        assert counters.get("pipeline.batches", 0) >= counters["pipeline.shards"]
        assert counters.get("pipeline.fallbacks", 0) == 0
        # The serial leg must not have pipelined anything.
        assert _pipeline_counters(campaigns[("off", 1)]) == {}


class TestDeterministicMetrics:
    def test_data_counters_equal_across_all_corners(self, campaigns):
        baseline = _data_counters(campaigns[("off", 1)])
        assert baseline
        for key in (("on", 1), ("on", 4), ("off", 4)):
            assert _data_counters(campaigns[key]) == baseline, key

    def test_histograms_equal_across_all_corners(self, campaigns):
        def state(campaign):
            return {
                name: h.state_dict()
                for name, h in campaign.metrics.histograms.items()
            }

        baseline = state(campaigns[("off", 1)])
        for key in (("on", 1), ("on", 4), ("off", 4)):
            assert state(campaigns[key]) == baseline, key

    def test_pipeline_counters_deterministic_across_jobs(self, campaigns):
        """pipeline.* is emitted only in the scan phase, which reads
        every month exactly once at any job count — so even the
        execution-strategy counters are reproducible."""
        assert _pipeline_counters(campaigns[("on", 1)]) == _pipeline_counters(
            campaigns[("on", 4)]
        )


class TestUnsortedArchiveFallback:
    @pytest.fixture()
    def shuffled_archive(self, simulation, tmp_path_factory):
        """A rotated archive with one ssl month's data rows reversed —
        ts order violated inside a single shard."""
        directory = tmp_path_factory.mktemp("shuffled-archive")
        write_rotated_logs(simulation.logs, directory)
        victim = sorted(directory.glob("ssl.*.log.gz"))[0]
        text = gzip.decompress(victim.read_bytes()).decode("utf-8")
        lines = text.splitlines(keepends=True)
        head = [ln for ln in lines if ln.startswith("#") and not ln.startswith("#close")]
        tail = [ln for ln in lines if ln.startswith("#close")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(rows) > 1
        shuffled = "".join(head + rows[::-1] + tail)
        victim.write_bytes(gzip.compress(shuffled.encode("utf-8")))
        return directory

    def test_fallback_is_taken_and_identical(self, simulation, shuffled_archive):
        pipelined = _run(simulation, shuffled_archive, pipeline="on")
        serial = _run(simulation, shuffled_archive, pipeline="off")
        assert _pipeline_counters(pipelined).get("pipeline.fallbacks", 0) >= 1
        assert _tables(pipelined) == _tables(serial)
        assert pipelined.ingest.to_dict() == serial.ingest.to_dict()
        assert _data_counters(pipelined) == _data_counters(serial)


def _config_for(simulation, directory, on_error="strict"):
    return _ExecutorConfig(
        bundle=simulation.trust_bundle,
        ct_log=simulation.ct_log,
        rules=AssociationRules(),
        filter_interception=True,
        min_interception_domains=5,
        on_error=ErrorPolicy.coerce(on_error),
        names=None,
        source=TsvDirectorySource(directory),
    )


def _corrupt(directory, pattern):
    victim = sorted(directory.glob(pattern))[0]
    text = gzip.decompress(victim.read_bytes()).decode("utf-8")
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            lines[i] = "garbage\trow\n"
            break
    victim.write_bytes(gzip.compress("".join(lines).encode("utf-8")))


def _error_tuple(error):
    return (str(error), error.reason, error.path, error.line_number, error.field)


class TestErrorParity:
    """Strict-mode failures must carry the serial path's exact context."""

    @pytest.fixture()
    def corrupt_archive(self, simulation, tmp_path_factory):
        directory = tmp_path_factory.mktemp("corrupt-both")
        write_rotated_logs(simulation.logs, directory)
        return directory

    def _serial_error(self, config, month):
        with pytest.raises(TsvFormatError) as excinfo:
            config.source.read_month(month, config.ingest_options())
        return excinfo.value

    def test_ssl_error_wins_when_both_logs_corrupt(
        self, simulation, corrupt_archive
    ):
        _corrupt(corrupt_archive, "ssl.*.log.gz")
        _corrupt(corrupt_archive, "x509.*.log.gz")
        config = _config_for(simulation, corrupt_archive)
        month = config.source.months()[0]
        serial = self._serial_error(config, month)
        assert "ssl" in serial.path
        with pytest.raises(TsvFormatError) as excinfo:
            stream = _ShardStream(config, month)
            for _ in stream.connections():
                pass
        assert _error_tuple(excinfo.value) == _error_tuple(serial)

    def test_x509_only_corruption_matches_serial(
        self, simulation, corrupt_archive
    ):
        _corrupt(corrupt_archive, "x509.*.log.gz")
        config = _config_for(simulation, corrupt_archive)
        month = config.source.months()[0]
        serial = self._serial_error(config, month)
        assert "x509" in serial.path
        with pytest.raises(TsvFormatError) as excinfo:
            stream = _ShardStream(config, month)
            for _ in stream.connections():
                pass
        assert _error_tuple(excinfo.value) == _error_tuple(serial)

    def test_ssl_only_corruption_matches_serial(
        self, simulation, corrupt_archive
    ):
        _corrupt(corrupt_archive, "ssl.*.log.gz")
        config = _config_for(simulation, corrupt_archive)
        month = config.source.months()[0]
        serial = self._serial_error(config, month)
        assert "ssl" in serial.path
        stream = _ShardStream(config, month)  # x509 is clean: init succeeds
        with pytest.raises(TsvFormatError) as excinfo:
            for _ in stream.connections():
                pass
        assert _error_tuple(excinfo.value) == _error_tuple(serial)


class TestCheckpointResumeMidBatch:
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_no_duplicate_or_lost_rows(self, simulation, fraction):
        text = ssl_log_to_string(simulation.logs.ssl)
        reference = read_ssl_log(
            io.StringIO(text), IngestOptions(fast_path="auto", path="ssl.log")
        )

        cut = int(len(text) * fraction)
        first = TailDecoder("ssl", path="ssl.log", fast_path="auto")
        records = first.feed(text[:cut])
        state = first.state_dict()
        assert state["pending"]  # the checkpoint lands mid-record

        second = TailDecoder(
            "ssl", path="ssl.log", fast_path="auto", count_file=False
        )
        second.load_state(state)
        records += second.feed(text[cut:])
        records += second.finish()

        assert [repr(r) for r in records] == [repr(r) for r in reference]
        uids = [r.uid for r in records]
        assert len(uids) == len(set(uids))  # no duplicated rows


class TestFactCacheEvictionMidBatch:
    def test_tiny_cache_labels_identically(self, simulation):
        logs = simulation.logs
        dataset = MtlsDataset(logs.ssl, logs.x509)
        cache = new_fact_cache(simulation.trust_bundle, max_entries=2)
        small = Enricher(simulation.trust_bundle, fact_cache=cache)
        reference = Enricher(simulation.trust_bundle, fact_cache=False)

        for conn in dataset.connections:
            labelled = small.label(conn)
            expected = reference.label(conn)
            assert len(cache) <= 2
            assert labelled.direction == expected.direction
            assert labelled.server_public == expected.server_public
            assert labelled.client_public == expected.client_public
            assert labelled.association == expected.association
        # The bound genuinely bit: the corpus holds more than two
        # certificates, so labelling must have evicted along the way.
        assert cache.stats.evictions > 0


class TestPipelineCoerce:
    def test_values(self):
        assert Pipeline.coerce(None) is Pipeline.AUTO
        assert Pipeline.coerce(True) is Pipeline.ON
        assert Pipeline.coerce(False) is Pipeline.OFF
        assert Pipeline.coerce("on") is Pipeline.ON
        assert Pipeline.coerce("off") is Pipeline.OFF
        assert Pipeline.coerce("auto") is Pipeline.AUTO
        assert Pipeline.coerce(Pipeline.ON) is Pipeline.ON

    def test_enabled(self):
        assert Pipeline.ON.enabled
        assert Pipeline.AUTO.enabled
        assert not Pipeline.OFF.enabled

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="auto"):
            Pipeline.coerce("sideways")


class TestBatchFeed:
    def test_preserves_order_and_content(self):
        batches = [[i, i + 1] for i in range(0, 100, 2)]
        feed = BatchFeed(iter(batches))
        assert list(feed) == batches

    def test_error_raised_in_consumer_after_good_batches(self):
        def generator():
            yield [1]
            yield [2]
            raise ValueError("mid-stream failure")

        feed = BatchFeed(generator())
        seen = []
        with pytest.raises(ValueError, match="mid-stream failure"):
            for batch in feed:
                seen.append(batch)
        assert seen == [[1], [2]]

    def test_drain_error_returns_error_without_raising(self):
        def generator():
            yield [1]
            raise ValueError("boom")

        error = BatchFeed(generator()).drain_error()
        assert isinstance(error, ValueError)
        assert BatchFeed(iter([[1], [2]])).drain_error() is None

    def test_close_stops_feeder_thread(self):
        produced = []

        def endless():
            i = 0
            while True:
                produced.append(i)
                yield [i]
                i += 1

        feed = BatchFeed(endless())
        iterator = iter(feed)
        for _ in range(3):
            next(iterator)
        feed.close()
        assert not feed._thread.is_alive()
        # Backpressure bounded the feeder: it can only ever run a few
        # batches ahead of the consumer, never the whole stream.
        assert len(produced) < 64


class TestInterleavingInvariant:
    """`update_partials` hands each partial one batch of one stream per
    call, and `_pipelined_analysis` calls it per decoded batch; that is
    only sound while no analysis consumes both streams and each folds
    connections in its batch method alone. Pin it structurally, on the
    class every factory builds."""

    def test_no_analysis_defines_update_and_update_raw(self, small_result):
        base = protocol.AnalysisPartial
        context = protocol.AnalysisContext.from_enriched(small_result.enriched)
        classes = set()
        for analysis in protocol.iter_analyses():
            cls = type(analysis.factory(context))
            classes.add(cls)
            assert cls.update is base.update, analysis.name
            assert cls.update_raw is base.update_raw, analysis.name
            has_batch = cls.update_batch is not base.update_batch
            has_raw = cls.update_raw_batch is not base.update_raw_batch
            assert not (has_batch and has_raw), analysis.name
            assert analysis.needs_raw == has_raw, analysis.name
        assert len(classes) >= 20  # the registry is actually class-backed
