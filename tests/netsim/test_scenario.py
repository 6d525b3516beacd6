"""Tests for the scenario configuration."""

import pytest

from repro.netsim.scenario import (
    CAMPUS_TRUST,
    CAMPUS_WORKLOAD,
    MONTH_DEC_2023,
    MONTH_NOV_2023,
    MONTH_OCT_2023,
    ScenarioConfig,
)


class TestMutualShare:
    def test_endpoints(self):
        config = ScenarioConfig()
        assert config.mutual_share(0) == pytest.approx(0.0199)
        assert config.mutual_share(22) == pytest.approx(0.0361)

    def test_monotone_outside_events(self):
        config = ScenarioConfig()
        shares = [config.mutual_share(i) for i in range(23)]
        # Outside the surge/dip window the ramp is non-decreasing.
        plain = shares[:MONTH_OCT_2023]
        assert plain == sorted(plain)

    def test_surge_and_dip(self):
        config = ScenarioConfig()
        assert config.mutual_share(MONTH_OCT_2023) > config.mutual_share(16)
        assert config.mutual_share(MONTH_NOV_2023) > config.mutual_share(16)
        assert config.mutual_share(MONTH_DEC_2023) < config.mutual_share(MONTH_NOV_2023)

    def test_short_campaign_has_no_calendar_events(self):
        config = ScenarioConfig(months=6)
        shares = [config.mutual_share(i) for i in range(6)]
        assert shares == sorted(shares)

    def test_single_month(self):
        config = ScenarioConfig(months=1)
        assert config.mutual_share(0) == pytest.approx(config.mutual_share_end)


class TestScaling:
    def test_scaled_respects_cap(self):
        config = ScenarioConfig(connections_per_month=1000, months=10)
        cap = config.cohort_client_cap
        assert config.scaled(10_000_000) == cap
        assert config.scaled(1) == 1

    def test_cap_grows_with_run_size(self):
        small = ScenarioConfig(connections_per_month=200, months=4)
        large = ScenarioConfig(connections_per_month=4000, months=23)
        assert large.cohort_client_cap > small.cohort_client_cap

    def test_campaign_mutual_estimate(self):
        config = ScenarioConfig(connections_per_month=1000, months=10)
        average = (config.mutual_share_start + config.mutual_share_end) / 2
        assert config.campaign_mutual_estimate == pytest.approx(10_000 * average)


class TestCalibrationConstants:
    def test_port_mixes_normalized(self):
        for mix in (CAMPUS_WORKLOAD.inbound_mutual_ports,):
            assert sum(mix.values()) == pytest.approx(1.0, abs=0.01)

    def test_association_shares_normalized(self):
        total = sum(
            row[0] for row in CAMPUS_WORKLOAD.inbound_associations.values()
        )
        assert total == pytest.approx(1.0, abs=0.01)

    def test_outbound_issuer_mix_normalized(self):
        issuers = CAMPUS_WORKLOAD.outbound_client_issuers
        assert sum(issuers.values()) == pytest.approx(1.0, abs=0.01)

    def test_table4_rows_present(self):
        orgs = {c.issuer_org for c in CAMPUS_TRUST.dummy_cohorts}
        assert orgs == {
            "Internet Widgits Pty Ltd", "Default Company Ltd",
            "Unspecified", "Acme Co",
        }

    def test_table5_rows_present(self):
        orgs = {c.issuer_org for c in CAMPUS_TRUST.shared_cohorts}
        assert "Globus Online" in orgs
        assert "Outset Medical" in orgs
        assert "IdenTrust" in orgs
        public = [c for c in CAMPUS_TRUST.shared_cohorts if c.issuer_public]
        assert len(public) == 5  # the gray rows of Table 5


class TestResidentialProfile:
    def test_profile_contrasts(self):
        campus = ScenarioConfig()
        home = ScenarioConfig.residential()
        assert home.mutual_share_end < campus.mutual_share_start
        assert home.tls13_share > campus.tls13_share
        assert home.interception_fraction == 0.0
        assert not home.include_misconfig_cohorts
        assert home.mutual_inbound_fraction < campus.mutual_inbound_fraction

    def test_profile_generates(self):
        from repro.netsim import TrafficGenerator

        config = ScenarioConfig.residential(months=2, connections_per_month=200)
        result = TrafficGenerator(config).generate()
        assert result.logs.ssl
        # No campus cohorts planted.
        labels = set(result.ground_truth.cohort_fingerprints)
        assert not any(label.startswith("shared:") for label in labels)


class TestEnterpriseProfile:
    def test_contrasts(self):
        campus = ScenarioConfig()
        enterprise = ScenarioConfig.enterprise()
        assert enterprise.mutual_share_start > campus.mutual_share_start
        assert enterprise.interception_fraction > campus.interception_fraction
        assert enterprise.include_misconfig_cohorts

    def test_generates_with_cohorts(self):
        from repro.netsim import TrafficGenerator

        config = ScenarioConfig.enterprise(months=2, connections_per_month=200)
        result = TrafficGenerator(config).generate()
        labels = set(result.ground_truth.cohort_fingerprints)
        assert any(label.startswith("shared:") for label in labels)
        # Higher mutual adoption than the campus default.
        gt = result.ground_truth
        share = sum(gt.monthly_visible_mutual) / sum(gt.monthly_total)
        assert share > 0.03
