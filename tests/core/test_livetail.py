"""The live-tail subsystem, in process: rotation-safe tailing,
admission control, checkpoint/restore, and the headline equivalence —
a daemon that lived through rotations, truncations, and mid-write
reads produces byte-identical tables to a batch ``analyze`` of the
finished archive (sampling disabled).
"""

import dataclasses
import gzip
import hashlib
import json
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.core.dataset import MtlsDataset
from repro.core.durable import load_checkpoint_json
from repro.core.livetail import (
    AdmissionController,
    LiveAnalysisEngine,
    LiveTailDaemon,
    LogTailer,
)
from repro.core.parallel import analyze_directory
from repro.core.server import LiveTailServer
from repro.core.streaming import StreamingAnalyzer
from repro.netsim import LiveLogWriter, ScenarioConfig, TrafficGenerator
from repro.zeek import IngestOptions, ssl_log_to_string, x509_log_to_string
from tests.core import profile_state

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(months=3, connections_per_month=120, seed=41)
    ).generate()


def _key(record):
    return (record.ts, getattr(record, "uid", None), getattr(record, "fuid", None))


def _batch_tables(directory, bundle):
    campaign = analyze_directory(
        directory, bundle=bundle, options=IngestOptions(on_error="skip")
    )
    return {
        name: campaign.table(name).render() for name in campaign.partials
    }, campaign.ingest


def _live_tables(engine):
    return {
        name: entry["table"].render()
        for name, entry in engine.tables().items()
    }


def _ingest_key(report):
    return (
        report.rows_ok,
        report.rows_dropped,
        report.files_read,
        report.files_missing_close,
        report.truncated_final_lines,
    )


def _merged_ingest_key(engine):
    return tuple(
        a + b
        for a, b in zip(
            _ingest_key(engine.ssl_report), _ingest_key(engine.x509_report)
        )
    )


class _Harness:
    """A daemon's moving parts without the loop: two tailers feeding
    one engine, driven explicitly by the test."""

    def __init__(self, directory, bundle, **engine_kwargs):
        self.engine = LiveAnalysisEngine(bundle, **engine_kwargs)
        self.ssl = LogTailer(
            directory, "ssl", report=self.engine.ssl_report
        )
        self.x509 = LogTailer(
            directory, "x509", report=self.engine.x509_report
        )

    def poll(self):
        ssl_records = self.ssl.poll()
        x509_records = self.x509.poll()
        self.engine.feed(ssl_records, x509_records)
        return len(ssl_records) + len(x509_records)

    def close(self):
        self.ssl.close()
        self.x509.close()


class TestLogTailer:
    def test_append_rotate_exactly_once(self, simulation, tmp_path):
        writer = LiveLogWriter(simulation.logs, tmp_path)
        tailer = LogTailer(tmp_path, "ssl")
        collected = []
        while writer.remaining:
            writer.write_next(37)
            collected.extend(tailer.poll())
        writer.finalize()
        collected.extend(tailer.poll())
        assert tailer.poll() == []  # drained; nothing re-read
        assert sorted(map(_key, collected)) == sorted(
            map(_key, simulation.logs.ssl)
        )
        assert tailer.rotations_seen >= 1

    def test_preexisting_archive_read_once(self, simulation, tmp_path):
        writer = LiveLogWriter(simulation.logs, tmp_path)
        writer.finalize()  # rotation happened before the tailer existed
        tailer = LogTailer(tmp_path, "x509")
        collected = tailer.poll()
        assert sorted(map(_key, collected)) == sorted(
            map(_key, simulation.logs.x509)
        )
        assert tailer.poll() == []

    def test_partial_write_is_buffered(self, simulation, tmp_path):
        with LiveLogWriter(simulation.logs, tmp_path) as writer:
            # Advance until the next event is an ssl row, then cut it.
            while writer._events[writer._cursor][0] != "ssl":
                writer.write_next(1)
            writer.write_next(20)
            while writer._events[writer._cursor][0] != "ssl":
                writer.write_next(1)
            tailer = LogTailer(tmp_path, "ssl")
            try:
                baseline = len(tailer.poll())
                writer.partial_write()
                assert tailer.poll() == []  # the cut row waits for its newline
                assert tailer.report.rows_dropped == 0
                writer.write_next(1)  # completes the cut row, writes one more
                resumed = tailer.poll()
            finally:
                tailer.close()
        assert len(resumed) >= 1
        assert baseline + len(resumed) == tailer.report.rows_ok

    def test_copytruncate_exactly_once(self, simulation, tmp_path):
        writer = LiveLogWriter(simulation.logs, tmp_path)
        tailer = LogTailer(tmp_path, "ssl")
        collected = []
        writer.write_next(50)
        collected.extend(tailer.poll())
        writer.truncate("ssl")
        collected.extend(tailer.poll())  # observes the regression + copy
        assert tailer.truncations_seen == 1
        while writer.remaining:
            writer.write_next(50)
            collected.extend(tailer.poll())
        writer.finalize()
        collected.extend(tailer.poll())
        assert sorted(map(_key, collected)) == sorted(
            map(_key, simulation.logs.ssl)
        )

    def test_state_round_trip_moves_no_byte_twice(self, simulation, tmp_path):
        writer = LiveLogWriter(simulation.logs, tmp_path)
        tailer = LogTailer(tmp_path, "ssl")
        collected = []
        writer.write_next(60)
        collected.extend(tailer.poll())
        state = json.loads(json.dumps(tailer.state_dict()))
        tailer.close()  # daemon dies here

        restored = LogTailer(tmp_path, "ssl")
        restored.load_state(state)
        while writer.remaining:
            writer.write_next(60)
            collected.extend(restored.poll())
        writer.finalize()
        collected.extend(restored.poll())
        assert sorted(map(_key, collected)) == sorted(
            map(_key, simulation.logs.ssl)
        )

    def test_restore_after_missed_rotation(self, simulation, tmp_path):
        """The checkpointed live instance rotated away while the daemon
        was down: its rotated file must be consumed from the recorded
        offset, not from byte zero."""
        writer = LiveLogWriter(simulation.logs, tmp_path)
        tailer = LogTailer(tmp_path, "ssl")
        collected = []
        writer.write_next(60)
        collected.extend(tailer.poll())
        state = json.loads(json.dumps(tailer.state_dict()))
        tailer.close()
        writer.write_next(len(writer._events))
        writer.finalize()  # rotation happens while "down"

        restored = LogTailer(tmp_path, "ssl")
        restored.load_state(state)
        collected.extend(restored.poll())
        assert sorted(map(_key, collected)) == sorted(
            map(_key, simulation.logs.ssl)
        )


class TestLiveBatchEquivalence:
    def test_faulted_live_run_matches_batch(self, simulation, tmp_path):
        """The acceptance-criteria core: rotations, a copytruncate, and
        partial writes along the way; the final tables and ingest
        accounting are identical to batch-analyzing the archive."""
        writer = LiveLogWriter(simulation.logs, tmp_path)
        harness = _Harness(tmp_path, simulation.trust_bundle)
        step = 0
        while writer.remaining:
            writer.write_next(25)
            if step == 2:
                writer.truncate("ssl")
                harness.poll()  # observe the regression before more rows
            if step == 4:
                writer.rotate("x509")
            if step % 3 == 0:
                writer.partial_write()
            harness.poll()
            step += 1
        writer.finalize()
        harness.poll()
        assert harness.ssl.truncations_seen == 1
        assert harness.ssl.rotations_seen + harness.x509.rotations_seen >= 4

        batch_tables, batch_ingest = _batch_tables(
            tmp_path, simulation.trust_bundle
        )
        assert _live_tables(harness.engine) == batch_tables
        assert _merged_ingest_key(harness.engine) == _ingest_key(batch_ingest)

    def test_no_sampling_status_when_disabled(self, simulation, tmp_path):
        writer = LiveLogWriter(simulation.logs, tmp_path)
        harness = _Harness(tmp_path, simulation.trust_bundle)
        writer.finalize()
        harness.poll()
        assert all(
            entry["sampling"] is None
            for entry in harness.engine.tables().values()
        )


class TestCheckpointRestore:
    def test_kill_and_resume_matches_batch(self, simulation, tmp_path):
        logdir = tmp_path / "logs"
        ckpt = tmp_path / "ckpt.json"
        writer = LiveLogWriter(simulation.logs, logdir)
        harness = _Harness(logdir, simulation.trust_bundle)
        writer.write_next(150)
        harness.poll()
        harness.engine.checkpoint(
            ckpt,
            {"ssl": harness.ssl.state_dict(), "x509": harness.x509.state_dict()},
        )
        # SIGKILL: rows written after the checkpoint but consumed by the
        # first process are re-consumed by the resumed one — and only
        # those.
        writer.write_next(40)
        harness.poll()
        harness.close()
        del harness

        document, used_prev = load_checkpoint_json(ckpt)
        assert not used_prev
        engine = LiveAnalysisEngine.from_checkpoint_doc(
            simulation.trust_bundle, document
        )
        resumed = _Harness.__new__(_Harness)
        resumed.engine = engine
        resumed.ssl = LogTailer(logdir, "ssl", report=engine.ssl_report)
        resumed.x509 = LogTailer(logdir, "x509", report=engine.x509_report)
        tailers = document["livetail"]["tailers"]
        resumed.ssl.load_state(tailers["ssl"])
        resumed.x509.load_state(tailers["x509"])
        while writer.remaining:
            writer.write_next(80)
            resumed.poll()
        writer.finalize()
        resumed.poll()

        batch_tables, batch_ingest = _batch_tables(
            logdir, simulation.trust_bundle
        )
        assert _live_tables(resumed.engine) == batch_tables
        assert _merged_ingest_key(resumed.engine) == _ingest_key(batch_ingest)

    def test_bad_state_format_rejected(self, simulation):
        with pytest.raises(ValueError, match="format 'livetail/v0'"):
            LiveAnalysisEngine.from_checkpoint_doc(
                simulation.trust_bundle,
                {"livetail": {"format": "livetail/v0", "state_b64": ""}},
            )

    def test_checkpoint_is_v2_and_engine_only(self, simulation, tmp_path):
        engine = LiveAnalysisEngine(simulation.trust_bundle)
        assert not hasattr(engine, "analyzer")
        engine.feed(simulation.logs.ssl, simulation.logs.x509)
        path = engine.checkpoint(tmp_path / "ckpt.json", {})
        document, _ = load_checkpoint_json(path)
        assert list(document) == ["livetail"]
        assert document["livetail"]["format"] == "livetail/v2"
        restored = LiveAnalysisEngine.from_checkpoint_doc(
            simulation.trust_bundle, document
        )
        assert _live_tables(restored) == _live_tables(engine)
        assert restored.connections_seen == engine.connections_seen
        assert list(restored.x509_by_fuid) == list(engine.x509_by_fuid)
        assert restored.metrics.counters == engine.metrics.counters
        assert restored.metrics.counters["streaming.checkpoint_writes"] == 1


class TestFuidMap:
    """The engine's fuid → x509 record map: connections join through
    it, the bound evicts the oldest entry, and a checkpoint keeps the
    records in map order."""

    def test_lookup_follows_fuid_map(self, simulation):
        engine = LiveAnalysisEngine(simulation.trust_bundle)
        record = simulation.logs.x509[0]
        engine.feed([], [record])
        assert engine.x509_by_fuid.get(record.fuid) == record
        assert engine.x509_by_fuid.get("nope") is None
        assert engine.x509_by_fuid.get(None) is None
        assert engine.metrics.counters["streaming.x509_records"] == 1

    def test_eviction_drops_record(self, simulation):
        x509 = [
            dataclasses.replace(r, fuid=f"F{i}")
            for i, r in enumerate(simulation.logs.x509[:3])
        ]
        engine = LiveAnalysisEngine(simulation.trust_bundle, max_fuid_map=2)
        engine.feed([], x509)
        assert "F0" not in engine.x509_by_fuid  # evicted
        assert engine.x509_by_fuid["F2"] == x509[2]
        assert engine.metrics.counters["livetail.fuid_evictions"] == 1
        with pytest.raises(ValueError, match="max_fuid_map"):
            LiveAnalysisEngine(simulation.trust_bundle, max_fuid_map=0)

    def test_checkpoint_round_trip_keeps_records(self, simulation, tmp_path):
        engine = LiveAnalysisEngine(simulation.trust_bundle, max_fuid_map=4)
        engine.feed([], simulation.logs.x509[:5])
        engine.feed([], simulation.logs.x509[1:2])  # re-announced: newest
        path = engine.checkpoint(tmp_path / "ckpt.json", {})
        document, _ = load_checkpoint_json(path)
        restored = LiveAnalysisEngine.from_checkpoint_doc(
            simulation.trust_bundle, document
        )
        assert restored.max_fuid_map == 4
        assert list(restored.x509_by_fuid.items()) == list(
            engine.x509_by_fuid.items()
        )
        assert list(restored.x509_by_fuid)[-1] == simulation.logs.x509[1].fuid


def _split_capture(logs, head):
    """``(first, rest)`` feeds of a capture: the first ``head`` ssl rows
    by time with every x509 row up to the last of them (or referenced
    by them), then everything else."""
    ssl = sorted(logs.ssl, key=lambda r: r.ts)
    x509 = sorted(logs.x509, key=lambda r: r.ts)
    first = ssl[:head]
    cut = first[-1].ts
    needed = {
        fuid
        for r in first
        for fuid in (*r.cert_chain_fuids, *r.client_cert_chain_fuids)
    }
    early = [r.ts <= cut or r.fuid in needed for r in x509]
    return (
        (first, [r for r, e in zip(x509, early) if e]),
        (ssl[head:], [r for r, e in zip(x509, early) if not e]),
    )


@pytest.fixture(scope="module")
def v1_checkpoint():
    """A ``livetail/v1`` checkpoint and the state of the engine that
    wrote it, both committed under ``tests/core/data``.

    The writer was the v1 engine (the code as of commit f79a944):
    ``LiveAnalysisEngine(bundle)`` fed ``_split_capture(logs, 40)``'s
    first part in one ``feed`` call, then ``checkpoint(path, tailers)``
    with the cursors of two tailers over an empty directory. The
    expected document records that engine's rendered tables,
    ``connections_seen``, fuid-map order and counters, and a sha256 of
    the capture so a simulator change shows up as such.
    """
    document = json.loads(
        gzip.decompress((DATA / "livetail-v1.json.gz").read_bytes())
    )
    expected = json.loads(
        (DATA / "livetail-v1.expected.json").read_text(encoding="utf-8")
    )
    capture = expected["capture"]
    simulation = TrafficGenerator(
        ScenarioConfig(
            months=capture["months"],
            connections_per_month=capture["connections_per_month"],
            seed=capture["seed"],
        )
    ).generate()
    digest = hashlib.sha256()
    digest.update(ssl_log_to_string(simulation.logs.ssl).encode("utf-8"))
    digest.update(x509_log_to_string(simulation.logs.x509).encode("utf-8"))
    assert digest.hexdigest() == capture["sha256"], (
        "the simulator no longer generates the capture this fixture was "
        "written from"
    )
    return document, expected, simulation


class TestV1Checkpoint:
    def test_restores_writer_state(self, v1_checkpoint):
        document, expected, simulation = v1_checkpoint
        assert document["livetail"]["format"] == "livetail/v1"
        engine = LiveAnalysisEngine.from_checkpoint_doc(
            simulation.trust_bundle, document
        )
        assert _live_tables(engine) == expected["tables"]
        assert engine.connections_seen == expected["connections_seen"]
        assert list(engine.x509_by_fuid) == expected["fuid_order"]
        assert engine.metrics.counters == expected["counters"]

    def test_resumed_feed_matches_batch(self, v1_checkpoint, tmp_path):
        document, expected, simulation = v1_checkpoint
        engine = LiveAnalysisEngine.from_checkpoint_doc(
            simulation.trust_bundle, document
        )
        _, (ssl, x509) = _split_capture(
            simulation.logs, expected["capture"]["head_ssl_rows"]
        )
        engine.feed(ssl, x509)
        assert engine.connections_seen == sum(
            1 for r in simulation.logs.ssl if r.established
        )
        with LiveLogWriter(simulation.logs, tmp_path) as writer:
            writer.finalize()
        batch_tables, _ = _batch_tables(tmp_path, simulation.trust_bundle)
        assert _live_tables(engine) == batch_tables


class TestAdmissionController:
    def test_disabled_is_pass_through(self):
        ctrl = AdmissionController()
        assert not ctrl.enabled
        assert ctrl.observe_batch(10**9) is None
        assert not ctrl.sampling

    def test_watermark_transitions(self):
        ctrl = AdmissionController(high_watermark=100, low_watermark=10)
        assert ctrl.observe_batch(100) is None
        assert ctrl.observe_batch(101) == "enter"
        assert ctrl.sampling
        assert ctrl.observe_batch(50) is None  # between the watermarks
        assert ctrl.observe_batch(10) == "exit"

    def test_reservoir_is_bounded_and_accounted(self):
        ctrl = AdmissionController(
            high_watermark=1, reservoir_size=8, hot_tables=("t",)
        )
        ctrl.observe_batch(100)
        for i in range(100):
            ctrl.offer(i)
        assert len(ctrl.reservoir) == 8
        items = ctrl.close_window()
        assert len(items) == 8
        stats = ctrl.table_stats("t")
        assert stats == {
            "sampled": True, "offered": 100, "admitted": 8,
            "correction": pytest.approx(12.5),
        }
        assert not ctrl.sampling

    def test_open_window_included_on_request(self):
        ctrl = AdmissionController(
            high_watermark=1, reservoir_size=4, hot_tables=("t",)
        )
        ctrl.observe_batch(10)
        for i in range(10):
            ctrl.offer(i)
        assert ctrl.table_stats("t") == {
            "sampled": True, "offered": 0, "admitted": 0, "correction": 1.0,
        }
        live = ctrl.table_stats("t", include_open_window=True)
        assert live["offered"] == 10 and live["admitted"] == 4

    def test_unknown_table_has_no_stats(self):
        ctrl = AdmissionController(high_watermark=1, hot_tables=("t",))
        ctrl.observe_batch(10)
        assert ctrl.table_stats("other") is None

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(high_watermark=-1)
        with pytest.raises(ValueError):
            AdmissionController(high_watermark=5, low_watermark=6)


class TestOverloadSampling:
    def test_hot_tables_flagged_with_correction(self, simulation, tmp_path):
        writer = LiveLogWriter(simulation.logs, tmp_path)
        admission = AdmissionController(
            high_watermark=20, low_watermark=0, reservoir_size=16
        )
        harness = _Harness(
            tmp_path, simulation.trust_bundle, admission=admission
        )
        writer.finalize()
        harness.poll()  # one huge batch: overload
        assert admission.sampling
        tables = harness.engine.tables()
        for name in harness.engine._hot:
            stats = tables[name]["sampling"]
            assert stats is not None and stats["sampled"]
            assert stats["correction"] > 1.0
        for name in harness.engine._cold:
            assert tables[name]["sampling"] is None
        counters = harness.engine.metrics.counters
        assert counters["livetail.admission.windows"] == 1
        assert counters["livetail.admission.deferred"] > 0

        harness.engine.publish_metrics()
        gauges = harness.engine.metrics.gauges
        for name in harness.engine._hot:
            assert gauges[f"livetail.sampled.{name}.correction"] > 1.0

    def test_window_exit_folds_reservoir(self, simulation, tmp_path):
        admission = AdmissionController(
            high_watermark=20, low_watermark=5, reservoir_size=16
        )
        harness = _Harness(
            tmp_path, simulation.trust_bundle, admission=admission
        )
        with LiveLogWriter(simulation.logs, tmp_path) as writer:
            writer.write_next(400)
        try:
            harness.poll()
            assert admission.sampling
            harness.poll()  # an empty batch (0 rows <= low) exits the window
        finally:
            harness.close()
        assert not admission.sampling
        assert harness.engine.metrics.counters["livetail.admission.folded"] > 0
        # Identity-level tables kept exact rows throughout.
        stats = harness.engine.tables()["table1"]["sampling"]
        assert stats is None


    def test_cold_population_table_stays_exact(self, simulation, tmp_path):
        """table7 samples while table8, cold and built over the same
        certificate population, renders as an unsampled run does."""
        exact = _Harness(tmp_path / "exact", simulation.trust_bundle)
        harness = _Harness(
            tmp_path / "hot", simulation.trust_bundle,
            admission=AdmissionController(
                high_watermark=20, low_watermark=0, reservoir_size=16,
                hot_tables=("table7",),
            ),
        )
        for directory in ("exact", "hot"):
            LiveLogWriter(simulation.logs, tmp_path / directory).finalize()
        exact.poll()
        harness.poll()  # one huge batch: the window opens and stays open
        assert harness.engine.admission.sampling
        tables = harness.engine.tables()
        stats = tables["table7"]["sampling"]
        assert stats is not None and stats["correction"] > 1.0
        assert tables["table8"]["sampling"] is None
        assert (
            tables["table8"]["table"].render()
            == exact.engine.tables()["table8"]["table"].render()
        )
        # The cold store holds the exact population, each connection
        # observed once.
        cold = harness.engine.partials["table8"].store
        assert harness.engine.partials["table7"].store is not cold
        reference = exact.engine.partials["table8"].store
        assert profile_state(cold) == profile_state(reference)
        assert sum(p.connection_count for p in reference.profiles.values()) == sum(
            (c.server_leaf is not None) + (c.client_leaf is not None)
            for c in MtlsDataset(simulation.logs.ssl, simulation.logs.x509)
        )


class TestDaemonLoop:
    def test_run_serves_and_checkpoints_on_stop(self, simulation, tmp_path):
        logdir = tmp_path / "logs"
        ckpt = tmp_path / "ckpt.json"
        writer = LiveLogWriter(simulation.logs, logdir)
        writer.write_next(100)
        daemon = LiveTailDaemon(
            logdir, simulation.trust_bundle,
            checkpoint_path=ckpt, checkpoint_interval=3600,
            poll_interval=0.005,
        )
        thread = threading.Thread(target=daemon.run)
        thread.start()
        try:
            writer.finalize()
            for _ in range(2000):
                if daemon.health()["rows"]["ssl"] >= len(simulation.logs.ssl):
                    break
                daemon.stop_event.wait(0.005)
        finally:
            daemon.stop()
            thread.join(timeout=30)
        assert not thread.is_alive()
        health = daemon.health()
        assert health["rows"]["ssl"] == len(simulation.logs.ssl)
        assert health["rows"]["x509"] == len(simulation.logs.x509)
        assert health["checkpoints_written"] >= 1
        # The final checkpoint loads and carries the full run.
        document, used_prev = load_checkpoint_json(ckpt)
        assert not used_prev
        restored = LiveAnalysisEngine.from_checkpoint_doc(
            simulation.trust_bundle, document
        )
        assert restored.connections_seen == daemon.engine.connections_seen
        assert restored.connections_seen == sum(
            1 for r in simulation.logs.ssl if r.established
        )
        assert _live_tables(restored) == _live_tables(daemon.engine)

    def test_metrics_current_before_first_checkpoint(
        self, simulation, tmp_path
    ):
        with LiveLogWriter(simulation.logs, tmp_path / "logs") as writer:
            writer.write_next(len(simulation.logs.ssl))
        daemon = LiveTailDaemon(
            tmp_path / "logs", simulation.trust_bundle,
            checkpoint_path=tmp_path / "ckpt.json", checkpoint_interval=3600,
            admission=AdmissionController(
                high_watermark=20, low_watermark=0, reservoir_size=16
            ),
        )
        server = LiveTailServer(daemon)
        server.start()
        try:
            assert daemon.poll_once() > 0
            url = f"http://{server.host}:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=30) as response:
                served = json.loads(response.read())
            stats = daemon.engine.enricher.fact_cache.stats
            assert stats.hits > 0
            assert daemon.checkpoints_written == 0
        finally:
            server.shutdown()
            daemon.close()
        counters, gauges = served["counters"], served["gauges"]
        assert counters["streaming.certfacts.hits"] == stats.hits
        assert counters["streaming.certfacts.misses"] == stats.misses
        assert daemon.engine.admission.sampled_tables
        for name in daemon.engine.admission.sampled_tables:
            assert gauges[f"livetail.sampled.{name}.correction"] > 1.0

    @pytest.mark.parametrize(
        "kind", ["no-live-state", "unknown-livetail-format"]
    )
    def test_foreign_checkpoint_refused_and_released(
        self, simulation, tmp_path, kind
    ):
        ckpt = tmp_path / "ckpt.json"
        if kind == "no-live-state":
            analyzer = StreamingAnalyzer(simulation.trust_bundle)
            analyzer.add_month(simulation.logs.ssl, simulation.logs.x509)
            analyzer.write_checkpoint(ckpt)
            found = "streaming-analyzer/v2"
        else:
            ckpt.write_text(json.dumps({"livetail": {
                "format": "livetail/v9", "tailers": {}, "state_b64": "",
            }}))
            found = "livetail/v9"
        with pytest.raises(ValueError, match=f"format '{found}'"):
            LiveTailDaemon(
                tmp_path, simulation.trust_bundle,
                checkpoint_path=ckpt, resume=True,
            )
        # The refusal released the checkpoint: a new daemon starts.
        daemon = LiveTailDaemon(
            tmp_path, simulation.trust_bundle, checkpoint_path=ckpt
        )
        daemon.close()
        assert not daemon.resumed

    def test_resume_flag_with_no_checkpoint_starts_fresh(
        self, simulation, tmp_path
    ):
        daemon = LiveTailDaemon(
            tmp_path, simulation.trust_bundle,
            checkpoint_path=tmp_path / "none.json", resume=True,
        )
        try:
            assert not daemon.resumed
            assert daemon.poll_once() == 0
        finally:
            daemon.close()
