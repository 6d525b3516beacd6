"""Tests for duration-of-activity statistics."""

from repro.core.activity import (
    ActivityQuantiles,
    activity_report,
    render_activity_report,
)


class TestActivityQuantiles:
    def test_empty(self):
        quantiles = ActivityQuantiles.of([])
        assert quantiles.count == 0
        assert quantiles.maximum == 0.0

    def test_single_value(self):
        quantiles = ActivityQuantiles.of([42.0])
        assert quantiles.count == 1
        assert quantiles.p50 == quantiles.maximum == 42.0

    def test_monotone(self):
        quantiles = ActivityQuantiles.of([float(v) for v in range(100)])
        assert quantiles.p50 <= quantiles.p90 <= quantiles.p99 <= quantiles.maximum
        assert quantiles.maximum == 99.0

    def test_order_independent(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert ActivityQuantiles.of(values) == ActivityQuantiles.of(sorted(values))


class TestActivityReport:
    def test_default_population(self, medium_result):
        report = activity_report(medium_result.enriched)
        assert report.overall.count > 0
        assert "server" in report.by_role and "client" in report.by_role
        assert report.by_category

    def test_quantiles_bounded_by_campaign(self, medium_result):
        report = activity_report(medium_result.enriched)
        campaign_days = 23 * 31
        assert report.overall.maximum <= campaign_days

    def test_persistent_certs_exist(self, medium_result):
        """Long-lived cohorts (Globus, GuardiCore) persist through the
        campaign, exactly the paper's 'duration of activity' narrative."""
        report = activity_report(medium_result.enriched)
        assert report.persistent_fingerprints
        for fp in report.persistent_fingerprints:
            profile = medium_result.enriched.profiles[fp]
            assert profile.activity_days > 0.5 * report.overall.maximum

    def test_custom_population(self, medium_result):
        shared = [
            p for p in medium_result.enriched.profiles.values() if p.shared_roles
        ]
        report = activity_report(medium_result.enriched, population=shared)
        assert report.overall.count == len(shared)

    def test_counts_partition(self, medium_result):
        report = activity_report(medium_result.enriched)
        assert sum(q.count for q in report.by_role.values()) == report.overall.count
        assert sum(q.count for q in report.by_category.values()) == report.overall.count

    def test_render(self, medium_result):
        text = render_activity_report(activity_report(medium_result.enriched)).render()
        assert "Duration of activity" in text
        assert "role: client" in text
