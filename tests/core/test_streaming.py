"""Tests for the incremental analyzer: must match the batch pipeline."""

import pytest

from repro.core import protocol
from repro.core.dataset import MtlsDataset
from repro.core.enrich import Enricher
from repro.core.streaming import StreamingAnalyzer
from repro.netsim import ScenarioConfig, TrafficGenerator


@pytest.fixture(scope="module")
def world():
    simulation = TrafficGenerator(
        ScenarioConfig(months=4, connections_per_month=400, seed=61)
    ).generate()
    batch = Enricher(
        bundle=simulation.trust_bundle, filter_interception=False
    ).enrich(MtlsDataset.from_logs(simulation.logs))
    return simulation, batch


def _batch(enriched, name):
    return protocol.run_analyses(enriched, [name])[name].result()


def _feed_monthly(simulation, analyzer):
    """Feed the stream partitioned by month, as rotated logs would be."""
    by_month_ssl: dict[str, list] = {}
    by_month_x509: dict[str, list] = {}
    for record in simulation.logs.ssl:
        by_month_ssl.setdefault(f"{record.ts:%Y-%m}", []).append(record)
    for record in simulation.logs.x509:
        by_month_x509.setdefault(f"{record.ts:%Y-%m}", []).append(record)
    for month in sorted(by_month_ssl):
        analyzer.add_month(by_month_ssl[month], by_month_x509.get(month, []))


class TestStreamingMatchesBatch:
    def test_monthly_series_identical(self, world):
        simulation, batch = world
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        _feed_monthly(simulation, analyzer)
        assert analyzer.monthly_mutual_share() == _batch(batch, "figure1")

    def test_certificate_statistics_identical(self, world):
        simulation, batch = world
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        _feed_monthly(simulation, analyzer)
        streaming = {
            r.label: (r.total, r.mutual)
            for r in analyzer.certificate_statistics()
        }
        batch_stats = {
            r.label: (r.total, r.mutual)
            for r in _batch(batch, "table1")
        }
        assert streaming == batch_stats

    def test_unique_certificates_match(self, world):
        simulation, batch = world
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        _feed_monthly(simulation, analyzer)
        assert analyzer.unique_certificates == len(batch.profiles)

    def test_incremental_queries_consistent(self, world):
        """Querying mid-stream then continuing must not corrupt state."""
        simulation, batch = world
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        analyzer.add_x509(simulation.logs.x509)
        half = len(simulation.logs.ssl) // 2
        analyzer.add_ssl(simulation.logs.ssl[:half])
        midpoint = analyzer.connections_seen
        analyzer.monthly_mutual_share()
        analyzer.certificate_statistics()
        analyzer.add_ssl(simulation.logs.ssl[half:])
        assert analyzer.connections_seen > midpoint
        assert analyzer.monthly_mutual_share() == _batch(batch, "figure1")

    def test_unestablished_dropped(self, world):
        simulation, _ = world
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        import dataclasses

        broken = dataclasses.replace(simulation.logs.ssl[0], established=False)
        analyzer.add_ssl([broken])
        assert analyzer.connections_seen == 0
        assert analyzer.dropped_unestablished == 1

    def test_unknown_fuid_tolerated(self, world):
        simulation, _ = world
        analyzer = StreamingAnalyzer(simulation.trust_bundle)
        import dataclasses

        orphan = dataclasses.replace(
            simulation.logs.ssl[0], cert_chain_fuids=("F_missing",)
        )
        analyzer.add_ssl([orphan])  # must not raise
        assert analyzer.unique_certificates == 0
