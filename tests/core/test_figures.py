"""Tests for figure-data exports."""

import csv
import io

import pytest

from repro.core import figures


class TestCsvSerialization:
    def test_empty(self):
        assert figures.rows_to_csv([]) == ""

    def test_header_and_rows(self, medium_result):
        series = figures.figure1_series(medium_result.enriched)
        document = figures.rows_to_csv(series)
        parsed = list(csv.reader(io.StringIO(document)))
        assert parsed[0] == [
            "month", "total_connections", "mutual_connections", "mutual_share",
        ]
        assert len(parsed) == len(series) + 1


class TestFigure1:
    def test_series_matches_prevalence(self, medium_result):
        from repro.core import protocol

        series = figures.figure1_series(medium_result.enriched)
        reference = protocol.run_analyses(
            medium_result.enriched, ["figure1"]
        )["figure1"].result()
        assert [p.month for p in series] == [p.label for p in reference]
        assert all(0 <= p.mutual_share <= 1 for p in series)


class TestFigure3:
    def test_segments_inverted(self, medium_result):
        segments = figures.figure3_segments(medium_result.enriched)
        assert segments
        for segment in segments:
            # Inverted (or equal, for the ayoba row): end <= start.
            assert segment.not_after_year <= segment.not_before_year
            assert segment.clients > 0


class TestFigure4:
    def test_points_unique_per_certificate(self, medium_result):
        points = figures.figure4_points(medium_result.enriched)
        assert points
        fingerprints = [p.fingerprint for p in points]
        assert len(fingerprints) == len(set(fingerprints))

    def test_no_inverted_certs(self, medium_result):
        for point in figures.figure4_points(medium_result.enriched):
            assert point.validity_days >= 0

    def test_category_consistent_with_public_flag(self, medium_result):
        for point in figures.figure4_points(medium_result.enriched):
            assert point.issuer_public == (point.issuer_category == "Public")

    def test_cdf(self):
        points = figures.cdf([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)),
                          (2.0, pytest.approx(2 / 3)),
                          (3.0, pytest.approx(1.0))]
        assert figures.cdf([]) == []


class TestFigure5:
    def test_points_positive_expiry(self, medium_result):
        points = figures.figure5_points(medium_result.enriched)
        assert points
        for point in points:
            assert point.days_expired_at_first_use > 0
            assert point.direction in ("inbound", "outbound")

    def test_apple_cluster_present(self, medium_result):
        points = figures.figure5_points(medium_result.enriched)
        apple = [p for p in points if p.issuer_org == "Apple"]
        assert apple
        assert all(p.issuer_public for p in apple)


class TestExportAll:
    def test_all_figures_exported(self, medium_result):
        documents = figures.export_all_figures(medium_result.enriched)
        assert set(documents) == {"figure1", "figure3", "figure4", "figure5"}
        for name, document in documents.items():
            assert document.startswith(("month", "issuer_org", "fingerprint")), name
