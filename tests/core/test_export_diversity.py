"""Tests for JSON export, issuer diversity, and the direction split."""

import json

from repro.core.export import study_to_dict, study_to_json, table_to_dict
from repro.core.issuers import issuer_diversity, render_issuer_diversity
from repro.core.prevalence import direction_split_series
from repro.core.report import Table


class TestExport:
    def test_table_to_dict(self):
        table = Table("Demo", ["a", "b"])
        table.add_row(1, "x")
        table.add_note("hello")
        payload = table_to_dict(table)
        assert payload == {
            "title": "Demo", "headers": ["a", "b"],
            "rows": [["1", "x"]], "notes": ["hello"],
        }

    def test_study_to_dict_structure(self, small_study):
        payload = study_to_dict(small_study)
        assert payload["config"]["months"] == 4
        assert payload["summary"]["connections"] > 0
        assert payload["summary"]["unique_certificates"] > 0
        assert len(payload["tables"]) == 24
        for title, table in payload["tables"].items():
            assert table["title"] == title
            assert table["headers"]

    def test_study_to_json_parses(self, small_study):
        document = study_to_json(small_study)
        decoded = json.loads(document)
        assert decoded["summary"]["connections"] > 0

    def test_json_deterministic(self, small_study):
        assert study_to_json(small_study) == study_to_json(small_study)


class TestIssuerDiversity:
    def test_overall(self, medium_result):
        diversity = issuer_diversity(medium_result.enriched)
        assert diversity.population_size > 0
        assert 0 < diversity.distinct_issuers <= diversity.population_size
        assert diversity.certificates_per_issuer >= 1.0
        assert diversity.top_organizations

    def test_by_role(self, medium_result):
        servers = issuer_diversity(medium_result.enriched, role="server")
        clients = issuer_diversity(medium_result.enriched, role="client")
        overall = issuer_diversity(medium_result.enriched)
        assert servers.population_size + clients.population_size == overall.population_size

    def test_mutual_only_flag(self, medium_result):
        mutual = issuer_diversity(medium_result.enriched, mutual_only=True)
        everything = issuer_diversity(medium_result.enriched, mutual_only=False)
        assert everything.population_size >= mutual.population_size

    def test_category_counts_partition(self, medium_result):
        diversity = issuer_diversity(medium_result.enriched)
        assert sum(diversity.category_counts.values()) == diversity.population_size

    def test_render(self, medium_result):
        text = render_issuer_diversity(
            issuer_diversity(medium_result.enriched), "mutual TLS"
        ).render()
        assert "distinct issuer DNs" in text

    def test_empty_population(self, medium_result):
        diversity = issuer_diversity(
            medium_result.enriched, role="no-such-role"
        )
        assert diversity.population_size == 0
        assert diversity.certificates_per_issuer == 0.0


class TestDirectionSplit:
    def test_series_covers_campaign(self, medium_result):
        series = direction_split_series(medium_result.enriched)
        assert len(series) == 23
        assert series[0].label == "2022-05"

    def test_surge_is_inbound_driven(self, medium_result):
        """Figure 1's narrative: the Oct-Nov 2023 surge comes from inbound
        (health) traffic, not outbound."""
        series = {p.label: p for p in direction_split_series(medium_result.enriched)}
        baseline = series["2023-08"].inbound_mutual
        surged = series["2023-11"].inbound_mutual
        assert surged > baseline

    def test_totals_match_monthly_mutual(self, medium_result):
        from repro.core import protocol

        split = direction_split_series(medium_result.enriched)
        monthly = protocol.run_analyses(
            medium_result.enriched, ["figure1"]
        )["figure1"].result()
        for point, month in zip(split, monthly):
            assert point.inbound_mutual + point.outbound_mutual == month.mutual_connections


class TestRegistryExport:
    def test_export_tables_dict_over_registry(self, small_study):
        from repro.core import protocol
        from repro.core.export import export_tables_dict

        payload = export_tables_dict(small_study)
        assert payload["order"] == list(protocol.analysis_names())
        for name in protocol.PAPER_TABLE_ORDER:
            entry = payload["analyses"][name]
            assert entry["analysis"] == name
            assert entry["title"]
            assert isinstance(entry["rows"], list)

    def test_export_tables_json_subset(self, small_study):
        from repro.core.export import export_tables_json

        payload = json.loads(
            export_tables_json(small_study, names=("tls13", "table1"))
        )
        assert payload["order"] == ["tls13", "table1"]
        assert all("legacy" not in entry for entry in payload["analyses"].values())
