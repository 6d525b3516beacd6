"""Tests for the CampusStudy orchestration layer."""

import re

import repro
from repro.core.study import CampusStudy
from repro.netsim import ScenarioConfig


class TestCampusStudy:
    def test_run_is_cached(self, small_study):
        assert small_study.run() is small_study.run()

    def test_every_table_renders(self, small_study):
        tables = small_study.all_tables()
        assert len(tables) == 24
        for table in tables:
            text = table.render()
            assert text.strip()
            assert "\n" in text

    def test_table_titles_cover_all_experiments(self, small_study):
        titles = " ".join(t.title for t in small_study.all_tables())
        for marker in (
            "Table 1", "Figure 1", "Table 2", "Table 3", "Figure 2",
            "Table 4", "§5.1.2", "Table 5", "Table 6", "Figure 3",
            "Figure 4", "Figure 5", "Table 7", "Table 8", "Table 9",
            "Table 13a", "Table 13b", "Table 14a", "Table 14b",
            "§6.1.2", "§5.1.1", "§3.3", "§3.2",
        ):
            assert marker in titles, f"missing experiment: {marker}"

    def test_interception_filter_toggle(self):
        # Needs enough traffic for each middlebox to cross the
        # 5-distinct-domains detection threshold.
        config = ScenarioConfig(months=12, connections_per_month=1200, seed=31)
        filtered = CampusStudy(config=config).run()
        unfiltered = CampusStudy(config=config, filter_interception=False).run()
        assert len(unfiltered.enriched.connections) >= len(filtered.enriched.connections)
        assert not unfiltered.enriched.interception.excluded_fingerprints
        assert filtered.enriched.interception.excluded_fingerprints

    def test_constructor_shorthand(self):
        study = CampusStudy(seed=3, months=2, connections_per_month=100)
        assert study.config.months == 2
        assert study.config.connections_per_month == 100


class TestPipelineRecoversGroundTruth:
    """Integration: the analysis must rediscover what the simulator planted."""

    def test_interception_recall_and_precision(self, medium_result):
        gt = medium_result.simulation.ground_truth
        report = medium_result.enriched.interception
        planted_orgs = gt.interception_issuer_orgs
        flagged_orgs = {
            issuer.split("O=")[-1].split(",")[0]
            for issuer in report.flagged_issuers
        }
        # Every flagged issuer is a genuine interception middlebox
        # (precision 1.0) and most middleboxes are caught.
        assert flagged_orgs <= planted_orgs
        assert len(flagged_orgs) >= len(planted_orgs) - 1
        # Excluded certs are exactly interception artifacts.
        assert report.excluded_fingerprints <= gt.interception_fingerprints

    def test_excluded_fraction_in_paper_ballpark(self, medium_result):
        fraction = medium_result.enriched.interception.excluded_fraction
        assert 0.02 < fraction < 0.20  # paper: 8.4%

    def test_planted_cohort_certs_survive_filter(self, medium_result):
        gt = medium_result.simulation.ground_truth
        analyzed = set(medium_result.enriched.profiles)
        for cohort in ("guardicore", "viptela", "extreme_outlier", "fnmt"):
            planted = gt.cohort_fingerprints.get(cohort, set())
            assert planted
            assert planted <= analyzed, f"{cohort} certs lost by the pipeline"

    def test_mutual_counts_match_ground_truth(self, medium_result):
        gt = medium_result.simulation.ground_truth
        observed_mutual = sum(1 for c in medium_result.enriched.connections if c.is_mutual)
        planted_mutual = sum(gt.monthly_visible_mutual)
        # Interception filtering only removes non-mutual connections, so
        # the mutual count survives nearly intact.
        assert abs(observed_mutual - planted_mutual) <= planted_mutual * 0.02

    def test_hidden_mutual_invisible(self, medium_result):
        """TLS 1.3 mutual connections must NOT be counted as mutual."""
        gt = medium_result.simulation.ground_truth
        assert gt.hidden_mutual_connections > 0
        for conn in medium_result.enriched.connections:
            if conn.view.ssl.version == "TLSv13":
                assert not conn.is_mutual


def test_package_quickstart_calls_real_methods():
    """Every attribute the package docstring's Quickstart reads off
    ``study`` exists on CampusStudy."""
    quickstart = repro.__doc__.split("Quickstart::", 1)[1]
    names = set(re.findall(r"\bstudy\.(\w+)", quickstart))
    assert names
    assert sorted(n for n in names if not hasattr(CampusStudy, n)) == []
