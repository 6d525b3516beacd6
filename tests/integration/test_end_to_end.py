"""End-to-end integration: simulate → serialize → reload → analyze.

Verifies that the full pipeline is serialization-transparent: analyzing
logs reloaded from Zeek-format TSV files yields exactly the same results
as analyzing the in-memory stream — the property a real deployment
(reading logs Zeek wrote to disk) depends on.
"""

import io

import pytest

from repro.core import protocol
from repro.core.dataset import MtlsDataset
from repro.core.enrich import Enricher
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import read_ssl_log, read_x509_log, write_ssl_log, write_x509_log


def _result(enriched, name):
    return protocol.run_analyses(enriched, [name])[name].result()


@pytest.fixture(scope="module")
def simulation():
    config = ScenarioConfig(months=4, connections_per_month=500, seed=41)
    return TrafficGenerator(config).generate()


@pytest.fixture(scope="module")
def reloaded_logs(simulation):
    ssl_buffer, x509_buffer = io.StringIO(), io.StringIO()
    write_ssl_log(simulation.logs.ssl, ssl_buffer)
    write_x509_log(simulation.logs.x509, x509_buffer)
    ssl_buffer.seek(0)
    x509_buffer.seek(0)
    return read_ssl_log(ssl_buffer), read_x509_log(x509_buffer)


class TestSerializationTransparency:
    def test_records_round_trip_exactly(self, simulation, reloaded_logs):
        ssl, x509 = reloaded_logs
        assert ssl == simulation.logs.ssl
        assert x509 == simulation.logs.x509

    def test_analysis_identical_after_round_trip(self, simulation, reloaded_logs):
        ssl, x509 = reloaded_logs
        enricher = Enricher(
            bundle=simulation.trust_bundle, ct_log=simulation.ct_log
        )
        direct = enricher.enrich(MtlsDataset.from_logs(simulation.logs))
        reloaded = enricher.enrich(MtlsDataset(ssl, x509))

        assert len(direct.connections) == len(reloaded.connections)
        assert set(direct.profiles) == set(reloaded.profiles)
        assert (
            direct.interception.flagged_issuers
            == reloaded.interception.flagged_issuers
        )

        direct_stats = {
            r.label: (r.total, r.mutual)
            for r in _result(direct, "table1")
        }
        reloaded_stats = {
            r.label: (r.total, r.mutual)
            for r in _result(reloaded, "table1")
        }
        assert direct_stats == reloaded_stats

        direct_services = _result(direct, "table2")
        reloaded_services = _result(reloaded, "table2")
        assert direct_services == reloaded_services

    def test_monthly_series_identical(self, simulation, reloaded_logs):
        ssl, x509 = reloaded_logs
        enricher = Enricher(bundle=simulation.trust_bundle)
        direct = _result(
            enricher.enrich(MtlsDataset.from_logs(simulation.logs)), "figure1"
        )
        reloaded = _result(enricher.enrich(MtlsDataset(ssl, x509)), "figure1")
        assert direct == reloaded


class TestCertificateFidelity:
    def test_every_logged_cert_rehydrates_fields(self, simulation):
        """Spot-check DER-derived fields against the x509.log rows."""
        truth = simulation.ground_truth
        by_fp = {r.fingerprint: r for r in simulation.logs.x509}
        checked = 0
        for label, fingerprints in truth.cohort_fingerprints.items():
            for fp in list(fingerprints)[:2]:
                record = by_fp.get(fp)
                if record is None:
                    continue
                checked += 1
                assert record.fingerprint == fp
                assert record.version in (1, 3)
                assert record.serial
        assert checked > 10
