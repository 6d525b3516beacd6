"""Tests for the traffic generator (small-scale runs)."""

import pytest

from repro.netsim import ScenarioConfig, TrafficGenerator


@pytest.fixture(scope="module")
def small_result():
    config = ScenarioConfig(months=4, connections_per_month=400, seed=11)
    return TrafficGenerator(config).generate()


class TestGeneratorBasics:
    def test_monthly_totals_recorded(self, small_result):
        gt = small_result.ground_truth
        assert len(gt.monthly_total) == 4
        assert all(total > 0 for total in gt.monthly_total)
        assert sum(gt.monthly_total) == len(small_result.logs.ssl)

    def test_all_connections_established(self, small_result):
        assert all(r.established for r in small_result.logs.ssl)

    def test_deterministic(self):
        config = ScenarioConfig(months=2, connections_per_month=150, seed=3)
        first = TrafficGenerator(config).generate()
        second = TrafficGenerator(config).generate()
        assert len(first.logs.ssl) == len(second.logs.ssl)
        assert [r.uid for r in first.logs.ssl] == [r.uid for r in second.logs.ssl]
        assert [r.fingerprint for r in first.logs.x509] == [
            r.fingerprint for r in second.logs.x509
        ]

    def test_different_seeds_differ(self):
        a = TrafficGenerator(ScenarioConfig(months=2, connections_per_month=150, seed=1)).generate()
        b = TrafficGenerator(ScenarioConfig(months=2, connections_per_month=150, seed=2)).generate()
        assert {r.fingerprint for r in a.logs.x509} != {r.fingerprint for r in b.logs.x509}

    def test_timestamps_ordered_within_month(self, small_result):
        records = small_result.logs.ssl
        months = [small_result.clock.month_of(r.ts) for r in records]
        assert months == sorted(m for m in months)


class TestTlsVisibility:
    def test_tls13_records_have_no_chains(self, small_result):
        for record in small_result.logs.ssl:
            if record.version == "TLSv13":
                assert record.cert_chain_fuids == ()
                assert record.client_cert_chain_fuids == ()

    def test_tls13_present_in_traffic(self, small_result):
        versions = {r.version for r in small_result.logs.ssl}
        assert "TLSv13" in versions and "TLSv12" in versions

    def test_hidden_mutual_counted(self, small_result):
        assert small_result.ground_truth.hidden_mutual_connections > 0


class TestPlantedCohorts:
    def test_cohort_certs_appear_in_logs(self, small_result):
        logged = {r.fingerprint for r in small_result.logs.x509}
        gt = small_result.ground_truth
        for cohort in ("guardicore", "viptela", "extreme_outlier", "fnmt"):
            planted = gt.cohort_fingerprints.get(cohort, set())
            assert planted, f"cohort {cohort} planted nothing"
            assert planted <= logged, f"cohort {cohort} certs missing from x509 log"

    def test_globus_serial_collisions_planted(self, small_result):
        gt = small_result.ground_truth
        globus_labels = [k for k in gt.cohort_fingerprints if "Globus Online" in k]
        assert globus_labels
        by_fp = {r.fingerprint: r for r in small_result.logs.x509}
        serials = {
            by_fp[fp].serial
            for label in globus_labels
            for fp in gt.cohort_fingerprints[label]
            if fp in by_fp
        }
        assert serials == {"00"}

    def test_guardicore_serials(self, small_result):
        gt = small_result.ground_truth
        by_fp = {r.fingerprint: r for r in small_result.logs.x509}
        serials = {
            by_fp[fp].serial
            for fp in gt.cohort_fingerprints["guardicore"]
            if fp in by_fp
        }
        assert serials == {"01", "03E8"}

    def test_incorrect_date_cohorts_inverted(self, small_result):
        gt = small_result.ground_truth
        by_fp = {r.fingerprint: r for r in small_result.logs.x509}
        labels = [k for k in gt.cohort_fingerprints if k.startswith("incorrect:")]
        assert labels
        inverted = 0
        for label in labels:
            for fp in gt.cohort_fingerprints[label]:
                record = by_fp.get(fp)
                if record is not None and record.not_valid_before > record.not_valid_after:
                    inverted += 1
        assert inverted > 0

    def test_shared_cert_same_fuid_both_sides(self, small_result):
        shared_labels = {
            label
            for label in small_result.ground_truth.cohort_fingerprints
            if label.startswith("shared:")
        }
        assert shared_labels
        found = 0
        for record in small_result.logs.ssl:
            if (
                record.cert_chain_fuids
                and record.cert_chain_fuids == record.client_cert_chain_fuids
            ):
                found += 1
        assert found > 0

    def test_interception_certs_logged(self, small_result):
        gt = small_result.ground_truth
        assert gt.interception_fingerprints
        logged = {r.fingerprint for r in small_result.logs.x509}
        assert gt.interception_fingerprints & logged

    def test_tunneling_connections(self, small_result):
        gt = small_result.ground_truth
        assert gt.tunneling_connections > 0
        tunneling = [
            r for r in small_result.logs.ssl
            if r.client_cert_chain_fuids and not r.cert_chain_fuids
            and r.version != "TLSv13"
        ]
        assert len(tunneling) >= gt.tunneling_connections * 0.9

    def test_expired_apple_cluster(self, small_result):
        gt = small_result.ground_truth
        apple = gt.cohort_fingerprints.get("expired_public:Apple", set())
        microsoft = gt.cohort_fingerprints.get("expired_public:Microsoft", set())
        assert len(apple) >= 8
        assert len(microsoft) == 2
        by_fp = {r.fingerprint: r for r in small_result.logs.x509}
        for fp in apple:
            record = by_fp.get(fp)
            if record is not None:
                assert record.not_valid_after < small_result.clock.start

    def test_cohorts_can_be_disabled(self):
        config = ScenarioConfig(
            months=2, connections_per_month=150, seed=4,
            include_misconfig_cohorts=False,
        )
        result = TrafficGenerator(config).generate()
        labels = set(result.ground_truth.cohort_fingerprints)
        assert not any(label.startswith("shared:") for label in labels)
        assert "guardicore" not in labels


@pytest.fixture(scope="module")
def calibration_result():
    config = ScenarioConfig(months=6, connections_per_month=1500, seed=8)
    return TrafficGenerator(config).generate(), config


class TestMutualCalibration:
    def test_mutual_share_close_to_target(self, calibration_result):
        result, config = calibration_result
        gt = result.ground_truth
        for index, (mutual, total) in enumerate(
            zip(gt.monthly_visible_mutual, gt.monthly_total)
        ):
            target = config.mutual_share(index)
            assert abs(mutual / total - target) < 0.02

    def test_port_mix_mutual_inbound(self, calibration_result):
        import ipaddress

        from repro.netsim.network import INTERNAL_PREFIXES

        result, _config = calibration_result

        def is_internal(ip):
            address = ipaddress.ip_address(ip)
            return any(address in p for p in INTERNAL_PREFIXES)

        inbound_mutual = [
            r for r in result.logs.ssl
            if r.is_mutual and is_internal(r.id_resp_h)
        ]
        assert inbound_mutual
        https = sum(1 for r in inbound_mutual if r.id_resp_p in (443, 8443))
        filewave = sum(1 for r in inbound_mutual if r.id_resp_p == 20017)
        assert https > filewave > 0
