"""Tests for study-export comparison."""

from repro.core.compare import (
    diff_studies,
    diff_study_json,
    diff_tables,
    render_study_diff,
)
from repro.core.export import study_to_dict, study_to_json


class TestDiffTables:
    def test_identical(self):
        table = {"rows": [["a", "1"], ["b", "2"]]}
        assert diff_tables("T", table, table).is_empty

    def test_changed_row(self):
        a = {"rows": [["a", "1"]]}
        b = {"rows": [["a", "2"]]}
        diff = diff_tables("T", a, b)
        assert diff.changed_rows == [("a", ["a", "1"], ["a", "2"])]

    def test_added_removed_rows(self):
        a = {"rows": [["a", "1"], ["b", "2"]]}
        b = {"rows": [["b", "2"], ["c", "3"]]}
        diff = diff_tables("T", a, b)
        assert diff.only_in_a == ["a"]
        assert diff.only_in_b == ["c"]


class TestDiffStudies:
    def test_same_study_no_diff(self, small_study):
        payload = study_to_dict(small_study)
        diff = diff_studies(payload, payload)
        assert diff.is_empty
        assert "no differences" in render_study_diff(diff).render()

    def test_different_seeds_differ(self, small_study):
        from repro.core.study import CampusStudy
        from repro.netsim import ScenarioConfig

        other = CampusStudy(
            config=ScenarioConfig(months=4, connections_per_month=400, seed=99)
        )
        diff = diff_studies(study_to_dict(small_study), study_to_dict(other))
        assert not diff.is_empty
        assert diff.summary_changes or diff.table_diffs

    def test_json_interface(self, small_study):
        document = study_to_json(small_study)
        assert diff_study_json(document, document).is_empty

    def test_summary_change_detected(self, small_study):
        a = study_to_dict(small_study)
        b = study_to_dict(small_study)
        b["summary"]["connections"] += 1
        diff = diff_studies(a, b)
        assert "connections" in diff.summary_changes

    def test_missing_table_detected(self, small_study):
        a = study_to_dict(small_study)
        b = study_to_dict(small_study)
        removed = next(iter(b["tables"]))
        del b["tables"][removed]
        diff = diff_studies(a, b)
        assert removed in diff.tables_only_in_a

    def test_render_truncation(self):
        a = {"summary": {}, "tables": {
            "T": {"rows": [[f"k{i}", "1"] for i in range(100)]}
        }}
        b = {"summary": {}, "tables": {
            "T": {"rows": [[f"k{i}", "2"] for i in range(100)]}
        }}
        diff = diff_studies(a, b)
        text = render_study_diff(diff, max_rows=5).render()
        assert "suppressed" in text
