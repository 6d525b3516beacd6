"""The live-tail subsystem, in process: rotation-safe tailing,
admission control, checkpoint/restore, and the headline equivalence —
a daemon that lived through rotations, truncations, and mid-write
reads produces byte-identical tables to a batch ``analyze`` of the
finished archive (sampling disabled).
"""

import json
import threading

import pytest

from repro.core.dataset import MtlsDataset
from repro.core.livetail import (
    AdmissionController,
    LiveAnalysisEngine,
    LiveTailDaemon,
    LogTailer,
)
from repro.core.parallel import analyze_directory
from repro.core.streaming import StreamingAnalyzer, load_checkpoint_json
from repro.netsim import LiveLogWriter, ScenarioConfig, TrafficGenerator
from tests.core import profile_state


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(months=3, connections_per_month=120, seed=41)
    ).generate()


def _key(record):
    return (record.ts, getattr(record, "uid", None), getattr(record, "fuid", None))


def _batch_tables(directory, bundle):
    campaign = analyze_directory(directory, bundle, on_error="skip")
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
        writer = LiveLogWriter(simulation.logs, tmp_path)
        # Advance until the next event is an ssl row, then cut it.
        while writer._events[writer._cursor][0] != "ssl":
            writer.write_next(1)
        writer.write_next(20)
        while writer._events[writer._cursor][0] != "ssl":
            writer.write_next(1)
        tailer = LogTailer(tmp_path, "ssl")
        baseline = len(tailer.poll())
        writer.partial_write()
        assert tailer.poll() == []  # the cut row waits for its newline
        assert tailer.report.rows_dropped == 0
        writer.write_next(1)  # completes the cut row, writes one more
        resumed = tailer.poll()
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
        harness.ssl.close()
        harness.x509.close()
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
        engine = LiveAnalysisEngine(simulation.trust_bundle)
        with pytest.raises(ValueError, match="livetail state format"):
            engine.load_extra({"format": "livetail/v0", "state_b64": ""})


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

        harness.engine.publish_sampling_metrics()
        gauges = harness.engine.metrics.gauges
        for name in harness.engine._hot:
            assert gauges[f"livetail.sampled.{name}.correction"] > 1.0

    def test_window_exit_folds_reservoir(self, simulation, tmp_path):
        writer = LiveLogWriter(simulation.logs, tmp_path)
        admission = AdmissionController(
            high_watermark=20, low_watermark=5, reservoir_size=16
        )
        harness = _Harness(
            tmp_path, simulation.trust_bundle, admission=admission
        )
        writer.write_next(400)
        harness.poll()
        assert admission.sampling
        harness.poll()  # an empty batch (0 rows <= low) exits the window
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
        restored = StreamingAnalyzer.from_checkpoint(
            simulation.trust_bundle, ckpt
        )
        assert restored.connections_seen == daemon.engine.analyzer.connections_seen

    def test_resume_flag_with_no_checkpoint_starts_fresh(
        self, simulation, tmp_path
    ):
        daemon = LiveTailDaemon(
            tmp_path, simulation.trust_bundle,
            checkpoint_path=tmp_path / "none.json", resume=True,
        )
        assert not daemon.resumed
        assert daemon.poll_once() == 0
