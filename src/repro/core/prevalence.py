"""Prevalence of mutual TLS: Figure 1 and Table 1.

Both analyses are implemented as mergeable partials
(:class:`Figure1Partial`, :class:`Table1Partial`) over two shared state
types (:class:`MonthlyShareState`, :class:`CertUsageState`) that the
streaming analyzer reuses for its bounded-memory aggregates. The
module-level functions are the legacy whole-dataset API, now thin
wrappers over the partials.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import protocol
from repro.core.enrich import EnrichedConn, EnrichedDataset
from repro.core.report import Table, fmt_count, percentage
from repro.zeek.files import month_key


@dataclass
class MonthlyShare:
    """One point of the Figure 1 time series."""

    label: str  # 'YYYY-MM'
    total_connections: int
    mutual_connections: int

    @property
    def share(self) -> float:
        if not self.total_connections:
            return 0.0
        return self.mutual_connections / self.total_connections


class MonthlyShareState:
    """Mergeable per-month connection/mutual counters (Figure 1)."""

    def __init__(self) -> None:
        self.total: dict[str, int] = {}
        self.mutual: dict[str, int] = {}

    def observe(self, label: str, mutual: bool) -> None:
        self.total[label] = self.total.get(label, 0) + 1
        if mutual:
            self.mutual[label] = self.mutual.get(label, 0) + 1

    def merge(self, other: "MonthlyShareState") -> None:
        for label, count in other.total.items():
            self.total[label] = self.total.get(label, 0) + count
        for label, count in other.mutual.items():
            self.mutual[label] = self.mutual.get(label, 0) + count

    def rows(self) -> list[MonthlyShare]:
        return [
            MonthlyShare(
                label=label,
                total_connections=self.total[label],
                mutual_connections=self.mutual.get(label, 0),
            )
            for label in sorted(self.total)
        ]

    # JSON-safe persistence (streaming-analyzer snapshots).

    def state_dict(self) -> dict:
        return {"total": dict(self.total), "mutual": dict(self.mutual)}

    @classmethod
    def from_state(cls, state: dict) -> "MonthlyShareState":
        instance = cls()
        instance.total = dict(state.get("total", {}))
        instance.mutual = dict(state.get("mutual", {}))
        return instance


@dataclass
class CertStatsRow:
    """One row of Table 1."""

    label: str
    total: int
    mutual: int

    @property
    def mutual_share(self) -> float:
        return self.mutual / self.total if self.total else 0.0


#: Fixed row order of Table 1.
_CERT_STAT_LABELS = (
    "Total",
    "Server", "Server/Public", "Server/Private",
    "Client", "Client/Public", "Client/Private",
)


class CertUsageState:
    """Mergeable per-certificate usage flags (Table 1).

    State per fingerprint is the compact quadruplet
    ``[public, used_as_server, used_as_client, used_in_mutual]`` — the
    same encoding the streaming analyzer checkpoints.
    """

    def __init__(self) -> None:
        self._certs: dict[str, list[int]] = {}

    def ensure(self, fingerprint: str, public: bool) -> None:
        """Track a certificate before (or without) any usage."""
        if fingerprint not in self._certs:
            self._certs[fingerprint] = [int(public), 0, 0, 0]

    def observe(
        self, fingerprint: str, public: bool, role: str, mutual: bool
    ) -> None:
        flags = self._certs.get(fingerprint)
        if flags is None:
            flags = [int(public), 0, 0, 0]
            self._certs[fingerprint] = flags
        if role == "server":
            flags[1] = 1
        else:
            flags[2] = 1
        if mutual:
            flags[3] = 1

    def merge(self, other: "CertUsageState") -> None:
        for fingerprint, theirs in other._certs.items():
            mine = self._certs.get(fingerprint)
            if mine is None:
                self._certs[fingerprint] = list(theirs)
            else:
                for index in (1, 2, 3):
                    mine[index] |= theirs[index]

    def rows(self) -> list[CertStatsRow]:
        """Table 1 rows (only certificates with observed usage count)."""
        counts = {label: [0, 0] for label in _CERT_STAT_LABELS}
        for flags in self._certs.values():
            public, server, client, mutual = flags
            if not (server or client):
                continue
            role = "Server" if server else "Client"
            kind = "Public" if public else "Private"
            for key in ("Total", role, f"{role}/{kind}"):
                counts[key][0] += 1
                if mutual:
                    counts[key][1] += 1
        return [
            CertStatsRow(label=label, total=total, mutual=mutual)
            for label, (total, mutual) in counts.items()
        ]

    @property
    def tracked(self) -> int:
        return len(self._certs)

    @property
    def used(self) -> int:
        return sum(1 for flags in self._certs.values() if flags[1] or flags[2])

    # JSON-safe persistence (streaming-analyzer snapshots).

    def state_dict(self) -> dict:
        return {"certs": {fp: list(flags) for fp, flags in self._certs.items()}}

    @classmethod
    def from_state(cls, state: dict) -> "CertUsageState":
        instance = cls()
        instance._certs = {
            fp: [int(flag) for flag in flags]
            for fp, flags in state.get("certs", {}).items()
        }
        return instance


# ---------------------------------------------------------------------------
# Partials
# ---------------------------------------------------------------------------


class Figure1Partial(protocol.AnalysisPartial):
    """Per-month share of TLS connections that are mutual.

    The denominator is *all* observed TLS connections, including TLS 1.3
    connections whose certificates are invisible (which therefore can
    never be counted as mutual — the paper's §3.3 caveat applies to the
    numerator).
    """

    def __init__(self, context: protocol.AnalysisContext) -> None:
        self.state = MonthlyShareState()

    def update(self, conn: EnrichedConn) -> None:
        self.state.observe(month_key(conn.view.ts), conn.is_mutual)

    def merge(self, other: "Figure1Partial") -> None:
        self.state.merge(other.state)

    def result(self) -> list[MonthlyShare]:
        return self.state.rows()

    def finalize(self) -> Table:
        return render_monthly_share(self.result())


class Table1Partial(protocol.AnalysisPartial):
    """Unique leaf certificates by role and issuer kind (Table 1).

    Roles follow §3.2.1 (presence in the server or client chain); a
    certificate seen in both roles is counted under its primary (server)
    role here and analyzed separately in the sharing module.
    """

    def __init__(self, context: protocol.AnalysisContext) -> None:
        self.state = CertUsageState()

    def update(self, conn: EnrichedConn) -> None:
        # The enricher labelled each leaf with the public-CA predicate.
        mutual = conn.is_mutual
        view = conn.view
        if view.server_leaf is not None:
            self.state.observe(
                view.server_leaf.fingerprint, conn.server_public, "server", mutual
            )
        if view.client_leaf is not None:
            self.state.observe(
                view.client_leaf.fingerprint, conn.client_public, "client", mutual
            )

    def merge(self, other: "Table1Partial") -> None:
        self.state.merge(other.state)

    def result(self) -> list[CertStatsRow]:
        return self.state.rows()

    def finalize(self) -> Table:
        return render_certificate_statistics(self.result())


protocol.register(protocol.Analysis(
    name="figure1",
    title="Figure 1: share of TLS connections using mutual TLS",
    factory=Figure1Partial,
    legacy="repro.core.prevalence.monthly_mutual_share",
))
protocol.register(protocol.Analysis(
    name="table1",
    title="Table 1: unique leaf certificates (total vs used in mutual TLS)",
    factory=Table1Partial,
    legacy="repro.core.prevalence.certificate_statistics",
))


# ---------------------------------------------------------------------------
# Legacy whole-dataset API (compatibility wrappers)
# ---------------------------------------------------------------------------


def monthly_mutual_share(enriched: EnrichedDataset) -> list[MonthlyShare]:
    """Figure 1: per-month fraction of TLS connections that are mutual."""
    partial = Figure1Partial(protocol.AnalysisContext.from_enriched(enriched))
    return protocol.feed(partial, enriched).result()


def certificate_statistics(enriched: EnrichedDataset) -> list[CertStatsRow]:
    """Table 1: unique leaf certificates by role and issuer kind."""
    partial = Table1Partial(protocol.AnalysisContext.from_enriched(enriched))
    return protocol.feed(partial, enriched).result()


def render_monthly_share(series: list[MonthlyShare], width: int = 40) -> Table:
    table = Table(
        "Figure 1: share of TLS connections using mutual TLS",
        ["Month", "Total", "Mutual", "%", "Bar"],
    )
    peak = max((p.share for p in series), default=0.0) or 1.0
    for point in series:
        bar = "#" * round(width * point.share / peak)
        table.add_row(
            point.label, point.total_connections, point.mutual_connections,
            f"{100 * point.share:.2f}", bar,
        )
    return table


def render_certificate_statistics(rows: list[CertStatsRow]) -> Table:
    table = Table(
        "Table 1: unique leaf certificates (total vs used in mutual TLS)",
        ["Certificates", "Total", "Mutual TLS", "%"],
    )
    for row in rows:
        indent = "  - " if "/" in row.label else ""
        label = row.label.split("/")[-1] + (" CA" if "/" in row.label else "")
        table.add_row(
            indent + label, fmt_count(row.total), fmt_count(row.mutual),
            percentage(row.mutual, row.total),
        )
    return table


@dataclass
class DirectionPoint:
    """Monthly mutual-TLS counts split by direction (Figure 1's narrative:
    the Oct-Dec 2023 surge was inbound, the dip outbound)."""

    label: str
    inbound_mutual: int
    outbound_mutual: int


def direction_split_series(enriched: EnrichedDataset) -> list[DirectionPoint]:
    """Per-month inbound/outbound mutual connection counts."""
    inbound: dict[str, int] = {}
    outbound: dict[str, int] = {}
    labels: set[str] = set()
    for conn in enriched.connections:
        label = month_key(conn.view.ts)
        labels.add(label)
        if not conn.is_mutual:
            continue
        if conn.direction == "inbound":
            inbound[label] = inbound.get(label, 0) + 1
        else:
            outbound[label] = outbound.get(label, 0) + 1
    return [
        DirectionPoint(
            label=label,
            inbound_mutual=inbound.get(label, 0),
            outbound_mutual=outbound.get(label, 0),
        )
        for label in sorted(labels)
    ]
