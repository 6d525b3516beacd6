"""Tests for the per-table analysis modules on simulated runs."""

import pytest

from repro.core import dummy, issuers, prevalence, services, sharing, validity


class TestPrevalence:
    def test_monthly_share_ramp(self, medium_result):
        series = prevalence.monthly_mutual_share(medium_result.enriched)
        assert len(series) == 23
        assert series[0].label == "2022-05"
        assert series[-1].label == "2024-03"
        # Figure 1 shape: start ~2%, end ~3.6%, rising overall.
        assert 0.01 < series[0].share < 0.03
        assert 0.028 < series[-1].share < 0.047
        assert series[-1].share > series[0].share

    def test_health_surge_and_rapid7_drop(self, medium_result):
        series = prevalence.monthly_mutual_share(medium_result.enriched)
        by_label = {p.label: p.share for p in series}
        # Oct-Nov 2023 surge is a local peak; Dec 2023 dips below it.
        assert by_label["2023-11"] > by_label["2023-09"]
        assert by_label["2023-12"] < by_label["2023-11"]

    def test_certificate_statistics_shape(self, medium_result):
        rows = {r.label: r for r in prevalence.certificate_statistics(medium_result.enriched)}
        # Table 1 orderings from the paper.
        assert rows["Client"].mutual_share > 0.85          # paper: 94.34%
        assert 0.2 < rows["Server"].mutual_share < 0.6     # paper: 38.45%
        assert rows["Server/Private"].mutual_share > 0.6   # paper: 82.78%
        assert rows["Server/Public"].mutual_share < 0.15   # paper: 0.22%
        assert rows["Total"].total == rows["Server"].total + rows["Client"].total

    def test_renderers(self, small_result):
        series = prevalence.monthly_mutual_share(small_result.enriched)
        assert "Figure 1" in prevalence.render_monthly_share(series).render()
        rows = prevalence.certificate_statistics(small_result.enriched)
        assert "Table 1" in prevalence.render_certificate_statistics(rows).render()


class TestServices:
    def test_quadrants_nonempty(self, medium_result):
        breakdown = services.service_breakdown(medium_result.enriched)
        assert breakdown.inbound_mutual and breakdown.outbound_mutual
        assert breakdown.inbound_nonmutual and breakdown.outbound_nonmutual

    def test_https_dominates_everywhere(self, medium_result):
        breakdown = services.service_breakdown(medium_result.enriched)
        for quadrant in (
            breakdown.inbound_mutual, breakdown.outbound_mutual,
            breakdown.inbound_nonmutual, breakdown.outbound_nonmutual,
        ):
            assert quadrant[0].port_group == "443"

    def test_filewave_prominent_inbound_mutual(self, medium_result):
        """Table 2: FileWave (20017) is the #2 inbound mutual service."""
        breakdown = services.service_breakdown(medium_result.enriched)
        ports = [row.port_group for row in breakdown.inbound_mutual]
        assert "20017" in ports
        filewave = next(r for r in breakdown.inbound_mutual if r.port_group == "20017")
        assert filewave.share > 0.08  # paper: 24.89%

    def test_globus_range_collapsed(self, medium_result):
        all_rows = services.service_breakdown(medium_result.enriched, top=10)
        groups = [r.port_group for r in all_rows.inbound_mutual]
        assert "50000-51000" in groups

    def test_outbound_nonmutual_https_share(self, medium_result):
        breakdown = services.service_breakdown(medium_result.enriched)
        https = breakdown.outbound_nonmutual[0]
        assert https.share > 0.95  # paper: 99.15%

    def test_render(self, small_result):
        breakdown = services.service_breakdown(small_result.enriched)
        assert "Table 2" in services.render_service_breakdown(breakdown).render()


class TestIssuerCategories:
    def test_inbound_association_rows(self, medium_result):
        rows = issuers.inbound_association_table(medium_result.enriched)
        by_name = {r.association: r for r in rows}
        # University Health dominates inbound mutual connections.
        assert rows[0].association == "University Health"
        assert by_name["University Health"].connection_share > 0.4
        assert by_name["University Health"].primary_issuer == "Private - Education"
        assert by_name["University Server"].primary_issuer == "Private - MissingIssuer"
        assert by_name["Local Organization"].primary_issuer == "Public"

    def test_association_shares_sum_to_one(self, medium_result):
        rows = issuers.inbound_association_table(medium_result.enriched)
        assert sum(r.connection_share for r in rows) == pytest.approx(1.0)

    def test_outbound_flows(self, medium_result):
        flows = issuers.outbound_flows(medium_result.enriched)
        assert flows.total_connections > 0
        # The 37.84% headline: missing issuer is the single largest
        # client-issuer category, at a comparable magnitude.
        assert flows.client_categories.most_common(1)[0][0] == "Private - MissingIssuer"
        assert 0.18 < flows.missing_issuer_share < 0.55
        # amazonaws / rapid7 are among the busiest SLDs.
        top_slds = [sld for sld, _ in flows.sld_connections.most_common(4)]
        assert "amazonaws.com" in top_slds
        assert "rapid7.com" in top_slds

    def test_public_server_missing_client_share(self, medium_result):
        # Paper: 45.71%. The direction of the finding (a sizable chunk of
        # public-server connections pairs with issuer-less client certs)
        # is what must survive the scale-down.
        flows = issuers.outbound_flows(medium_result.enriched)
        assert flows.public_server_missing_client_share > 0.04

    def test_renders(self, small_result):
        rows = issuers.inbound_association_table(small_result.enriched)
        assert "Table 3" in issuers.render_inbound_association_table(rows).render()
        flows = issuers.outbound_flows(small_result.enriched)
        assert "Figure 2" in issuers.render_outbound_flows(flows).render()


class TestDummy:
    def test_dummy_issuer_rows(self, medium_result):
        rows = dummy.dummy_issuer_table(medium_result.enriched)
        orgs = {r.issuer_org for r in rows}
        assert "Internet Widgits Pty Ltd" in orgs
        assert "Unspecified" in orgs or "Default Company Ltd" in orgs

    def test_dummy_both_endpoints(self, medium_result):
        rows = dummy.dummy_both_endpoints(medium_result.enriched)
        assert rows
        fireboard = [r for r in rows if r.sld == "fireboard.io"]
        assert fireboard
        # Table 10: the fireboard.io cohort is OpenSSL-default on both ends.
        assert any(
            r.client_issuer_org == "Internet Widgits Pty Ltd"
            and r.server_issuer_org == "Internet Widgits Pty Ltd"
            for r in fireboard
        )

    def test_serial_collisions_globus(self, medium_result):
        report = dummy.serial_collisions(medium_result.enriched, "inbound")
        assert report.groups
        globus = [g for g in report.groups if g.issuer_org == "Globus Online"]
        assert globus
        assert globus[0].serial == "00"
        assert len(globus[0].fingerprints) > 1

    def test_serial_collisions_guardicore(self, medium_result):
        report = dummy.serial_collisions(medium_result.enriched, "outbound")
        orgs = {g.issuer_org for g in report.groups}
        assert "GuardiCore" in orgs
        serials = {g.serial for g in report.groups if g.issuer_org == "GuardiCore"}
        assert serials == {"01", "03E8"}

    def test_renders(self, small_result):
        rows = dummy.dummy_issuer_table(small_result.enriched)
        assert "Table 4" in dummy.render_dummy_issuer_table(rows).render()
        report = dummy.serial_collisions(small_result.enriched, "inbound")
        assert "§5.1.2" in dummy.render_serial_collisions(report).render()


class TestSharing:
    def test_same_connection_rows(self, medium_result):
        rows = sharing.same_connection_sharing(medium_result.enriched)
        assert rows
        orgs = {r.issuer_org for r in rows}
        assert "Globus Online" in orgs
        # Public-CA rows exist too (the gray area of Table 5).
        assert any(r.issuer_public for r in rows)

    def test_globus_high_churn(self, medium_result):
        rows = sharing.same_connection_sharing(medium_result.enriched)
        globus = [r for r in rows if r.issuer_org == "Globus Online"]
        assert globus
        assert max(len(r.fingerprints) for r in globus) > 3  # 14-day reissue churn

    def test_cross_connection_subnets(self, medium_result):
        spread = sharing.cross_connection_subnets(medium_result.enriched)
        assert spread.shared_certificates > 0
        # Table 6 orderings: client spread exceeds server spread at the
        # tail; quantiles are monotone.
        for quantiles in (spread.server_quantiles, spread.client_quantiles):
            assert quantiles[50] <= quantiles[75] <= quantiles[99] <= quantiles[100]
        assert spread.client_quantiles[99] >= spread.server_quantiles[99]

    def test_renders(self, small_result):
        rows = sharing.same_connection_sharing(small_result.enriched)
        assert "Table 5" in sharing.render_same_connection_sharing(rows).render()
        spread = sharing.cross_connection_subnets(small_result.enriched)
        assert "Table 6" in sharing.render_cross_connection_subnets(spread).render()


class TestValidity:
    def test_incorrect_dates_found(self, medium_result):
        rows = validity.incorrect_dates(medium_result.enriched)
        orgs = {r.issuer_org for r in rows}
        assert "IDrive Inc Certificate Authority" in orgs
        assert "rcgen" in orgs or "SDS" in orgs

    def test_incorrect_dates_both_endpoints(self, medium_result):
        rows = validity.incorrect_dates_both_endpoints(medium_result.enriched)
        assert rows
        slds = set()
        for row in rows:
            slds |= row.slds
        assert "idrive.com" in slds or "(missing SNI)" in slds

    def test_validity_periods_extreme_tail(self, medium_result):
        stats = validity.validity_periods(medium_result.enriched)
        assert stats.extreme_certificates > 0
        assert stats.extreme_private >= stats.extreme_public
        # The 83,432-day outlier (~228 years).
        assert stats.longest_days > 80_000
        assert "tmdxdev.com" in stats.longest_slds

    def test_expired_report(self, medium_result):
        report = validity.expired_certificates(medium_result.enriched)
        assert report.inbound and report.outbound
        shares = report.inbound_association_shares()
        # Figure 5a: VPN is the top association for inbound expired certs.
        top = max(shares.items(), key=lambda kv: kv[1])[0]
        assert top in ("University VPN", "Local Organization")

    def test_expired_outbound_apple_cluster(self, medium_result):
        report = validity.expired_certificates(medium_result.enriched)
        cluster = report.outbound_cluster(min_days=700)
        assert cluster
        apple = sum(1 for u in cluster if (u.issuer_org or "") == "Apple")
        assert apple / len(cluster) > 0.7  # paper: 337 of 339

    def test_renders(self, small_result):
        rows = validity.incorrect_dates(small_result.enriched)
        assert "Figure 3" in validity.render_incorrect_dates(rows).render()
        stats = validity.validity_periods(small_result.enriched)
        assert "Figure 4" in validity.render_validity_periods(stats).render()
        report = validity.expired_certificates(small_result.enriched)
        assert "Figure 5" in validity.render_expired_report(report).render()
