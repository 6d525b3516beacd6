"""Differential suite over corpora: clean, corrupted, and end-to-end.

Every test runs the same input through the batch engine and the
reference path and asserts total equivalence — the acceptance contract
of the fast ingest/enrich engine.
"""

import pytest

from repro.core.parallel import analyze_directory
from repro.core.streaming import StreamingAnalyzer
from repro.core.study import CampusStudy
from repro.netsim import FaultPlan, LogCorruptor, ScenarioConfig, TrafficGenerator
from repro.zeek import IngestOptions
from repro.zeek.files import write_rotated_logs

from tests.differential import KINDS, POLICIES, assert_equivalent, corpus_texts

STUDY_CONFIG = ScenarioConfig(seed=11, months=3, connections_per_month=120)


@pytest.fixture(scope="module")
def texts():
    return corpus_texts()


@pytest.fixture(scope="module")
def corrupt_texts(texts):
    ssl_text, x509_text = texts
    corruptor = LogCorruptor(FaultPlan.uniform(0.05, seed=13))
    ssl_bad, x509_bad, _ = corruptor.corrupt_logs(ssl_text, x509_text)
    return ssl_bad, x509_bad


@pytest.fixture(scope="module")
def reordered_texts(texts):
    ssl_text, x509_text = texts
    corruptor = LogCorruptor(FaultPlan(seed=3, reorder_columns=True))
    ssl_bad, x509_bad, _ = corruptor.corrupt_logs(ssl_text, x509_text)
    return ssl_bad, x509_bad


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", KINDS)
def test_clean_corpus(texts, kind, policy):
    assert_equivalent(kind, texts[KINDS.index(kind)], policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", KINDS)
def test_corrupt_corpus(corrupt_texts, kind, policy):
    """Fault-injected logs: same drops, same quarantine captures, and —
    under strict — the same first error with identical context."""
    assert_equivalent(kind, corrupt_texts[KINDS.index(kind)], policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", KINDS)
def test_reordered_columns(reordered_texts, kind, policy):
    """Permuted #fields headers compile a remapping decoder; strict
    rejects them identically on both paths."""
    assert_equivalent(kind, reordered_texts[KINDS.index(kind)], policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", KINDS)
def test_headerless_tail(texts, kind, policy):
    """Rows with no #fields header at all, plus a truncated final line."""
    text = texts[KINDS.index(kind)]
    body = "\n".join(
        line for line in text.split("\n") if line and not line.startswith("#")
    )
    assert_equivalent(kind, body, policy)  # no trailing newline: truncated


# ---------------------------------------------------------------------------
# End-to-end: whole-pipeline equivalence (tables, reports, snapshots)
# ---------------------------------------------------------------------------


def _study(fast_path: str) -> CampusStudy:
    return CampusStudy(
        config=STUDY_CONFIG,
        options=IngestOptions(on_error="skip", fast_path=fast_path),
    )


@pytest.fixture(scope="module")
def study_pair():
    batch, off = _study("auto"), _study("off")
    batch.run(), off.run()
    return batch, off


def test_study_tables_identical(study_pair):
    batch, off = study_pair
    batch_tables = {t.title: t.render() for t in batch.all_tables()}
    off_tables = {t.title: t.render() for t in off.all_tables()}
    assert batch_tables == off_tables


def test_study_ingest_reports_identical(study_pair):
    batch, off = study_pair
    assert (
        batch.run().ingest_report.to_dict() == off.run().ingest_report.to_dict()
    )


def test_study_cache_metrics_present(study_pair):
    batch, off = study_pair
    batch.partials(), off.partials()
    counters = batch.metrics.counters
    assert counters.get("certfacts.enrich.hits", 0) > 0
    assert counters.get("certfacts.enrich.misses", 0) > 0
    assert "certfacts.enrich.hits" not in off.metrics.counters


def test_sharded_campaign_identical(tmp_path):
    simulation = TrafficGenerator(STUDY_CONFIG).generate()
    archive = tmp_path / "archive"
    write_rotated_logs(simulation.logs, archive)

    def run(mode):
        campaign = analyze_directory(
            archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log,
            options=IngestOptions(on_error="skip", fast_path=mode), jobs=1,
        )
        return (
            {t.title: t.render() for t in campaign.tables()},
            campaign.ingest.to_dict(),
            campaign.dangling_fuid_refs,
        )

    batch_tables, batch_ingest, batch_dangling = run("auto")
    off_tables, off_ingest, off_dangling = run("off")
    assert batch_tables == off_tables
    assert batch_ingest == off_ingest
    assert batch_dangling == off_dangling


def _streaming_views(analyzer: StreamingAnalyzer):
    return (
        analyzer.monthly_mutual_share(),
        analyzer.certificate_statistics(),
        analyzer.tls13_blindspot(),
        analyzer.connections_seen,
        analyzer.dropped_dangling_fuid,
    )


def test_streaming_identical_and_resumable():
    simulation = TrafficGenerator(STUDY_CONFIG).generate()
    logs, bundle = simulation.logs, simulation.trust_bundle
    half = len(logs.x509) // 2

    batch = StreamingAnalyzer(bundle, options=IngestOptions(fast_path="auto"))
    off = StreamingAnalyzer(bundle, options=IngestOptions(fast_path="off"))
    for analyzer in (batch, off):
        analyzer.add_month(logs.ssl, logs.x509)
    assert _streaming_views(batch) == _streaming_views(off)

    # Snapshot mid-stream with a warm cache, resume, finish: identical
    # to the uninterrupted run — including the cache counters.
    interrupted = StreamingAnalyzer(
        bundle, options=IngestOptions(fast_path="auto")
    )
    interrupted.add_x509(logs.x509[:half])
    resumed = StreamingAnalyzer.from_snapshot(
        bundle, interrupted.to_snapshot()
    )
    resumed.add_x509(logs.x509[half:])
    resumed.add_ssl(logs.ssl)
    assert _streaming_views(resumed) == _streaming_views(batch)
    resumed._sync_cache_metrics()
    batch._sync_cache_metrics()
    assert {
        name: value
        for name, value in resumed.metrics.counters.items()
        if name.startswith("streaming.certfacts.")
    } == {
        name: value
        for name, value in batch.metrics.counters.items()
        if name.startswith("streaming.certfacts.")
    }


def test_streaming_snapshot_preserves_fast_path_off():
    bundle = TrafficGenerator(STUDY_CONFIG).generate().trust_bundle
    off = StreamingAnalyzer(bundle, options=IngestOptions(fast_path="off"))
    snapshot = off.to_snapshot()
    assert snapshot["certfacts"] is None
    restored = StreamingAnalyzer.from_snapshot(bundle, snapshot)
    assert restored._fact_cache is None
    # Older snapshots never recorded the cache: restore to a cold one.
    snapshot.pop("certfacts")
    legacy = StreamingAnalyzer.from_snapshot(bundle, snapshot)
    assert legacy._fact_cache is not None and len(legacy._fact_cache) == 0
