"""Checkpoint/resume for the streaming analyzer.

The headline guarantee: kill the ingestion after month N, resume from
the JSON snapshot, and the final aggregates are identical to an
uninterrupted run — including eviction and dangling-fuid bookkeeping.
"""

import dataclasses
import json

import pytest

from repro.core.streaming import SNAPSHOT_FORMAT, StreamingAnalyzer
from repro.netsim import ScenarioConfig, TrafficGenerator


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(months=5, connections_per_month=300, seed=83)
    ).generate()


def _months(simulation):
    by_ssl: dict[str, list] = {}
    by_x509: dict[str, list] = {}
    for record in simulation.logs.ssl:
        by_ssl.setdefault(f"{record.ts:%Y-%m}", []).append(record)
    for record in simulation.logs.x509:
        by_x509.setdefault(f"{record.ts:%Y-%m}", []).append(record)
    return [
        (by_ssl[m], by_x509.get(m, [])) for m in sorted(by_ssl)
    ]


def _run(simulation, months, **kwargs):
    analyzer = StreamingAnalyzer(simulation.trust_bundle, **kwargs)
    for ssl, x509 in months:
        analyzer.add_month(ssl, x509)
    return analyzer


def _state(analyzer):
    return (
        analyzer.monthly_mutual_share(),
        analyzer.certificate_statistics(),
        analyzer.connections_seen,
        analyzer.dropped_unestablished,
        analyzer.dropped_dangling_fuid,
        analyzer.fuid_evictions,
    )


class TestSnapshotResume:
    @pytest.mark.parametrize("kill_after", [1, 2, 4])
    def test_resume_matches_uninterrupted(self, simulation, kill_after):
        months = _months(simulation)
        uninterrupted = _run(simulation, months)

        first = _run(simulation, months[:kill_after])
        wire = json.dumps(first.to_snapshot())  # the process dies here
        resumed = StreamingAnalyzer.from_snapshot(
            simulation.trust_bundle, json.loads(wire)
        )
        for ssl, x509 in months[kill_after:]:
            resumed.add_month(ssl, x509)
        assert _state(resumed) == _state(uninterrupted)

    def test_resume_matches_with_bounded_fuid_map(self, simulation):
        months = _months(simulation)
        bound = 50  # small enough to force evictions
        uninterrupted = _run(simulation, months, max_fuid_map=bound)
        assert uninterrupted.fuid_evictions > 0

        first = _run(simulation, months[:2], max_fuid_map=bound)
        resumed = StreamingAnalyzer.from_snapshot(
            simulation.trust_bundle, json.loads(json.dumps(first.to_snapshot()))
        )
        assert resumed.max_fuid_map == bound
        for ssl, x509 in months[2:]:
            resumed.add_month(ssl, x509)
        assert _state(resumed) == _state(uninterrupted)

    def test_snapshot_round_trip_is_stable(self, simulation):
        analyzer = _run(simulation, _months(simulation)[:2])
        snapshot = analyzer.to_snapshot()
        restored = StreamingAnalyzer.from_snapshot(
            simulation.trust_bundle, snapshot
        )
        assert restored.to_snapshot() == snapshot

    def test_snapshot_is_json_serializable(self, simulation):
        analyzer = _run(simulation, _months(simulation))
        encoded = json.dumps(analyzer.to_snapshot())
        assert json.loads(encoded)["format"] == SNAPSHOT_FORMAT

    @pytest.mark.parametrize(
        "snapshot",
        [
            {"format": "streaming-analyzer/v0"},
            # The pre-registry layout: counters at the top level, no
            # embedded partials. Its reader is gone.
            {
                "format": "streaming-analyzer/v1",
                "max_fuid_map": None,
                "fuid_to_fp": {},
                "certs": {},
                "monthly_total": {},
                "monthly_mutual": {},
                "connections_seen": 0,
                "dropped_unestablished": 0,
            },
        ],
        ids=["v0", "v1"],
    )
    def test_wrong_format_rejected(self, simulation, snapshot):
        with pytest.raises(ValueError, match="unsupported snapshot format"):
            StreamingAnalyzer.from_snapshot(simulation.trust_bundle, snapshot)


class TestCheckpointFile:
    def test_write_and_read_checkpoint(self, simulation, tmp_path):
        months = _months(simulation)
        analyzer = _run(simulation, months[:3])
        path = analyzer.write_checkpoint(tmp_path / "ckpt.json")
        assert path.exists()
        assert not path.with_suffix(".json.tmp").exists()  # atomic rename

        resumed = StreamingAnalyzer.from_checkpoint(simulation.trust_bundle, path)
        for ssl, x509 in months[3:]:
            resumed.add_month(ssl, x509)
        assert _state(resumed) == _state(_run(simulation, months))

    def test_checkpoint_overwrites_previous(self, simulation, tmp_path):
        months = _months(simulation)
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        path = tmp_path / "ckpt.json"
        for ssl, x509 in months:
            analyzer.add_month(ssl, x509)
            analyzer.write_checkpoint(path)
        final = StreamingAnalyzer.from_checkpoint(simulation.trust_bundle, path)
        assert _state(final) == _state(analyzer)


class TestBoundedFuidMap:
    def test_rejects_nonpositive_bound(self, simulation):
        with pytest.raises(ValueError, match="max_fuid_map"):
            StreamingAnalyzer(simulation.trust_bundle, max_fuid_map=0)

    def test_eviction_produces_dangling_refs(self, simulation):
        months = _months(simulation)
        tight = _run(simulation, months, max_fuid_map=10)
        loose = _run(simulation, months)
        assert tight.fuid_evictions > 0
        assert tight.dropped_dangling_fuid >= loose.dropped_dangling_fuid

    def test_unbounded_run_has_no_evictions(self, simulation):
        analyzer = _run(simulation, _months(simulation))
        assert analyzer.fuid_evictions == 0

    def test_reannounced_fuid_refreshes_recency(self, simulation):
        bundle = simulation.trust_bundle
        x509 = [
            dataclasses.replace(r, fuid=f"F{i}")
            for i, r in enumerate(simulation.logs.x509[:3])
        ]
        analyzer = StreamingAnalyzer(bundle, max_fuid_map=3)
        analyzer.add_x509(x509)
        analyzer.add_x509([x509[0]])  # F0 re-announced: now most recent
        analyzer.add_x509([dataclasses.replace(x509[1], fuid="F9")])
        # The bound evicted exactly one entry, and it was not F0.
        assert analyzer.fuid_evictions == 1
        assert "F0" in analyzer._fuid_to_fp
        assert "F1" not in analyzer._fuid_to_fp


class TestSnapshotUpgrade:
    """The v2 layout embeds the registry partial states."""

    def test_format_is_v2(self, simulation):
        assert SNAPSHOT_FORMAT == "streaming-analyzer/v2"
        analyzer = _run(simulation, _months(simulation))
        assert analyzer.to_snapshot()["format"] == SNAPSHOT_FORMAT

    def test_v2_embeds_registry_partials(self, simulation):
        snapshot = _run(simulation, _months(simulation)).to_snapshot()
        assert set(snapshot["partials"]) == {"figure1", "table1", "tls13"}

    def test_unknown_format_still_rejected(self, simulation):
        analyzer = _run(simulation, _months(simulation))
        snapshot = analyzer.to_snapshot()
        snapshot["format"] = "streaming-analyzer/v3"
        with pytest.raises(ValueError, match="unsupported snapshot format"):
            StreamingAnalyzer.from_snapshot(simulation.trust_bundle, snapshot)

    def test_streaming_blindspot_matches_batch(self, simulation):
        from repro.core.dataset import MtlsDataset
        from repro.core.tuples import tls13_blindspot

        analyzer = _run(simulation, _months(simulation))
        batch = tls13_blindspot(MtlsDataset.from_logs(simulation.logs))
        assert analyzer.tls13_blindspot() == batch


class TestDurableCheckpoint:
    """Crash-safe checkpoint files: fsync'd atomic writes, no stray tmp
    files, and a retained last-good fallback for torn primary writes."""

    def test_tmp_file_removed_on_write_failure(self, simulation, tmp_path):
        analyzer = _run(simulation, _months(simulation)[:1])
        path = tmp_path / "ckpt.json"
        with pytest.raises(TypeError):
            # A non-serializable rider poisons json.dump mid-write.
            analyzer.write_checkpoint(path, extra={"bad": object()})
        assert not path.with_suffix(".json.tmp").exists()
        assert not path.exists()

    def test_write_fsyncs_before_rename(self, simulation, tmp_path, monkeypatch):
        # Checkpoint writes route through the shared durable-write
        # sequence; the fsync must land before the publishing rename.
        import os as _os

        calls = []
        real_fsync = _os.fsync
        real_replace = _os.replace
        monkeypatch.setattr(
            "repro.core.durable.os.fsync",
            lambda fd: (calls.append("fsync"), real_fsync(fd)),
        )
        monkeypatch.setattr(
            "repro.core.durable.os.replace",
            lambda src, dst: (calls.append("replace"), real_replace(src, dst)),
        )
        analyzer = _run(simulation, _months(simulation)[:1])
        analyzer.write_checkpoint(tmp_path / "ckpt.json")
        assert "fsync" in calls, "checkpoint bytes must be fsync'd"
        assert calls.index("fsync") < calls.index("replace")

    def test_previous_checkpoint_retained(self, simulation, tmp_path):
        months = _months(simulation)
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        path = tmp_path / "ckpt.json"
        analyzer.add_month(*months[0])
        analyzer.write_checkpoint(path)
        first = path.read_text()
        analyzer.add_month(*months[1])
        analyzer.write_checkpoint(path)
        prev = path.with_suffix(".json.prev")
        assert prev.exists()
        assert prev.read_text() == first

    def test_corrupt_primary_falls_back_to_prev(self, simulation, tmp_path):
        months = _months(simulation)
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        path = tmp_path / "ckpt.json"
        analyzer.add_month(*months[0])
        analyzer.write_checkpoint(path)
        analyzer.add_month(*months[1])
        analyzer.write_checkpoint(path)
        # A torn write leaves truncated JSON in the primary file.
        path.write_text(path.read_text()[: 40])
        restored = StreamingAnalyzer.from_checkpoint(
            simulation.trust_bundle, path
        )
        expected = _run(simulation, months[:1])
        assert _state(restored) == _state(expected)
        assert restored.metrics.counters["streaming.checkpoint_fallbacks"] == 1

    def test_corrupt_primary_without_prev_raises(self, simulation, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            StreamingAnalyzer.from_checkpoint(simulation.trust_bundle, path)

    def test_clean_primary_counts_no_fallback(self, simulation, tmp_path):
        analyzer = _run(simulation, _months(simulation)[:1])
        path = analyzer.write_checkpoint(tmp_path / "ckpt.json")
        restored = StreamingAnalyzer.from_checkpoint(
            simulation.trust_bundle, path
        )
        assert "streaming.checkpoint_fallbacks" not in restored.metrics.counters


class TestKeepRecords:
    """`keep_records=True` retains the joinable x509 record per live
    fuid, with the same lifecycle as the fingerprint map — and the
    retained records survive a checkpoint round trip."""

    def test_lookup_follows_fuid_map(self, simulation):
        analyzer = StreamingAnalyzer(
            simulation.trust_bundle, keep_records=True
        )
        record = simulation.logs.x509[0]
        analyzer.add_x509([record])
        assert analyzer.x509_for_fuid(record.fuid) == record
        assert analyzer.x509_for_fuid("nope") is None
        assert analyzer.x509_for_fuid(None) is None

    def test_eviction_drops_record(self, simulation):
        x509 = [
            dataclasses.replace(r, fuid=f"F{i}")
            for i, r in enumerate(simulation.logs.x509[:3])
        ]
        analyzer = StreamingAnalyzer(
            simulation.trust_bundle, max_fuid_map=2, keep_records=True
        )
        analyzer.add_x509(x509)
        assert analyzer.x509_for_fuid("F0") is None  # evicted
        assert analyzer.x509_for_fuid("F2") is not None

    def test_snapshot_round_trip_keeps_records(self, simulation):
        analyzer = StreamingAnalyzer(
            simulation.trust_bundle, keep_records=True
        )
        analyzer.add_x509(simulation.logs.x509[:5])
        snapshot = json.loads(json.dumps(analyzer.to_snapshot()))
        restored = StreamingAnalyzer.from_snapshot(
            simulation.trust_bundle, snapshot
        )
        assert restored.keep_records
        for record in simulation.logs.x509[:5]:
            assert restored.x509_for_fuid(record.fuid) == record

    def test_default_mode_snapshot_has_no_records(self, simulation):
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        analyzer.add_x509(simulation.logs.x509[:5])
        assert "x509_records" not in analyzer.to_snapshot()
