"""Plottable data series behind the paper's figures.

The `report` module renders text tables; this module exposes the figures
as *data* — the exact series a plotting script would need to redraw
Figure 1 (time series), Figure 3 (validity segments), Figure 4
(scatter + issuer marginals), and Figure 5 (expiry scatter + marginals)
— plus CSV serialization for external tooling.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from repro.core import protocol
from repro.core.enrich import EnrichedDataset
from repro.core.issuers import categorize_issuer


# ---------------------------------------------------------------------------
# Generic CSV serialization of dataclass rows
# ---------------------------------------------------------------------------


def rows_to_csv(rows: Sequence) -> str:
    """Serialize a homogeneous list of dataclass instances to CSV."""
    if not rows:
        return ""
    names = [f.name for f in fields(rows[0])]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(names)
    for row in rows:
        writer.writerow([getattr(row, name) for name in names])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Figure 1: time series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig1Point:
    month: str
    total_connections: int
    mutual_connections: int
    mutual_share: float


def figure1_series(enriched: EnrichedDataset) -> list[Fig1Point]:
    return [
        Fig1Point(
            month=p.label,
            total_connections=p.total_connections,
            mutual_connections=p.mutual_connections,
            mutual_share=round(p.share, 6),
        )
        for p in protocol.run_analyses(enriched, ["figure1"])["figure1"].result()
    ]


# ---------------------------------------------------------------------------
# Figure 3: inverted-validity segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig3Segment:
    """One horizontal segment of Figure 3: a misconfigured certificate's
    (notAfter → notBefore) span, annotated like the paper's labels."""

    issuer_org: str
    side: str
    not_before_year: int
    not_after_year: int
    clients: int
    activity_days: float


def figure3_segments(enriched: EnrichedDataset) -> list[Fig3Segment]:
    segments: list[Fig3Segment] = []
    for row in protocol.run_analyses(enriched, ["figure3"])["figure3"].result():
        segments.append(
            Fig3Segment(
                issuer_org=row.issuer_org,
                side=row.side,
                not_before_year=min(row.not_before_years),
                not_after_year=min(row.not_after_years),
                clients=len(row.clients),
                activity_days=round(row.activity_days, 1),
            )
        )
    return segments


# ---------------------------------------------------------------------------
# Figure 4: validity-period scatter with issuer marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig4Point:
    fingerprint: str
    direction: str
    validity_days: float
    issuer_category: str
    issuer_public: bool


def figure4_points(enriched: EnrichedDataset) -> list[Fig4Point]:
    """One point per unique client certificate used in mutual TLS,
    excluding inverted-date certificates (as the paper does)."""
    points: list[Fig4Point] = []
    seen: set[str] = set()
    for conn in enriched.mutual:
        leaf = conn.view.client_leaf
        if leaf is None or leaf.has_inverted_validity or leaf.fingerprint in seen:
            continue
        seen.add(leaf.fingerprint)
        category = categorize_issuer(leaf, enriched.bundle)
        points.append(
            Fig4Point(
                fingerprint=leaf.fingerprint,
                direction=conn.direction,
                validity_days=round(leaf.validity_days, 2),
                issuer_category=category,
                issuer_public=category == "Public",
            )
        )
    return points


def cdf(values: Iterable[float]) -> list[tuple[float, float]]:
    """Empirical CDF points (value, cumulative fraction), sorted."""
    ordered = sorted(values)
    if not ordered:
        return []
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


# ---------------------------------------------------------------------------
# Figure 5: expired-certificate scatter with public/private marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig5Point:
    fingerprint: str
    direction: str
    days_expired_at_first_use: float
    activity_days: float
    issuer_public: bool
    issuer_org: str


def figure5_points(enriched: EnrichedDataset) -> list[Fig5Point]:
    report = protocol.run_analyses(enriched, ["figure5"])["figure5"].result()
    points: list[Fig5Point] = []
    for usage in report.inbound + report.outbound:
        points.append(
            Fig5Point(
                fingerprint=usage.fingerprint,
                direction=usage.direction,
                days_expired_at_first_use=round(usage.days_expired_at_first_use, 1),
                activity_days=round(usage.activity_days, 1),
                issuer_public=usage.public,
                issuer_org=usage.issuer_org or "",
            )
        )
    return points


def export_all_figures(enriched: EnrichedDataset) -> dict[str, str]:
    """Every figure as a CSV document, keyed by figure name."""
    return {
        "figure1": rows_to_csv(figure1_series(enriched)),
        "figure3": rows_to_csv(figure3_segments(enriched)),
        "figure4": rows_to_csv(figure4_points(enriched)),
        "figure5": rows_to_csv(figure5_points(enriched)),
    }
