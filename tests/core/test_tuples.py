"""Tests for connection tuples, the TLS 1.3 blind spot, and weak crypto."""

from repro.core import protocol, tuples
from repro.core.dummy import WeakCryptoPartial, render_weak_crypto


def _weak_crypto(enriched):
    return protocol.run_analyses(enriched, ["weak-crypto"])["weak-crypto"].result()


class TestConnectionTuples:
    def test_tuples_unique(self, small_result):
        all_tuples = tuples.connection_tuples(small_result.enriched)
        assert all_tuples
        # Tuple count is bounded by mutual connection count.
        mutual = sum(1 for c in small_result.enriched.connections if c.is_mutual)
        assert len(all_tuples) <= mutual

    def test_tuples_have_four_parts(self, small_result):
        for item in tuples.connection_tuples(small_result.enriched):
            assert len(item) == 4
            client_ip, client_fp, server_ip, server_fp = item
            assert client_fp in small_result.enriched.profiles
            assert server_fp in small_result.enriched.profiles

    def test_tuples_for_fingerprints_subset(self, small_result):
        all_tuples = tuples.connection_tuples(small_result.enriched)
        some_fp = next(iter(all_tuples))[1]
        selected = tuples.tuples_for_fingerprints(small_result.enriched, {some_fp})
        assert selected
        assert selected <= all_tuples
        assert all(t[1] == some_fp or t[3] == some_fp for t in selected)

    def test_empty_fingerprints(self, small_result):
        assert tuples.tuples_for_fingerprints(small_result.enriched, set()) == set()


class TestTls13Blindspot:
    def test_shares_in_range(self, medium_result):
        blindspot = tuples.tls13_blindspot(medium_result.dataset)
        # The generator plants ~40.86% TLS 1.3 among non-mutual traffic,
        # diluted by the visible mutual slice.
        assert 0.15 < blindspot.connection_share < 0.55      # paper 40.86%
        assert 0 < blindspot.server_ip_share <= 1.0          # paper 25.35%
        assert 0 < blindspot.client_ip_share <= 1.0          # paper 32.23%

    def test_ip_counts_consistent(self, medium_result):
        blindspot = tuples.tls13_blindspot(medium_result.dataset)
        assert blindspot.tls13_server_ips <= blindspot.total_server_ips
        assert blindspot.tls13_client_ips <= blindspot.total_client_ips
        assert blindspot.tls13_connections <= blindspot.total_connections

    def test_render(self, small_result):
        blindspot = tuples.tls13_blindspot(small_result.dataset)
        text = tuples.render_tls13_blindspot(blindspot).render()
        assert "§3.3" in text and "paper" in text

    def test_empty_dataset(self):
        from repro.core.dataset import MtlsDataset

        blindspot = tuples.tls13_blindspot(MtlsDataset([], []))
        assert blindspot.connection_share == 0.0
        assert blindspot.server_ip_share == 0.0
        assert blindspot.client_ip_share == 0.0


class TestWeakCrypto:
    def test_report_on_medium_run(self, medium_result):
        report = _weak_crypto(medium_result.enriched)
        # The generator plants v1 certs under 'Internet Widgits Pty Ltd'
        # and 1024-bit keys under 'Unspecified' probabilistically; at
        # medium scale at least one class shows up.
        assert len(report.v1_fingerprints) + len(report.weak_key_fingerprints) >= 1
        # Tuple counts only exist where certs exist.
        if not report.v1_fingerprints:
            assert report.v1_tuples == 0
        if not report.weak_key_fingerprints:
            assert report.weak_key_tuples == 0

    def test_v1_certs_are_dummy_issued(self, medium_result):
        report = _weak_crypto(medium_result.enriched)
        for fp in report.v1_fingerprints:
            record = medium_result.enriched.profiles[fp].record
            assert record.version == 1

    def test_weak_key_threshold_configurable(self, medium_result):
        enriched = medium_result.enriched
        context = protocol.AnalysisContext.from_enriched(enriched)
        generous = WeakCryptoPartial(context, weak_bits=4096)
        strict = WeakCryptoPartial(context, weak_bits=512)
        protocol.update_partials({"weak-crypto": generous}, enriched.connections)
        protocol.update_partials({"weak-crypto": strict}, enriched.connections)
        generous, strict = generous.result(), strict.result()
        assert len(generous.weak_key_fingerprints) >= len(strict.weak_key_fingerprints)

    def test_render(self, medium_result):
        text = render_weak_crypto(_weak_crypto(medium_result.enriched)).render()
        assert "§5.1.1" in text and "1024" in text
