"""Certificate sharing between servers and clients (Tables 5 and 6)."""

from __future__ import annotations

from dataclasses import dataclass, field

import math

from repro.core import protocol
from repro.core.enrich import EnrichedConn, EnrichedDataset
from repro.core.report import Table
from repro.text.domains import extract_domain


@dataclass
class SameConnectionSharingRow:
    """One row of Table 5: both endpoints presented the same certificate."""

    direction: str
    sld: str
    issuer_org: str
    issuer_public: bool
    clients: set[str] = field(default_factory=set)
    fingerprints: set[str] = field(default_factory=set)
    connections: int = 0
    first_seen: object = None
    last_seen: object = None

    @property
    def activity_days(self) -> float:
        if self.first_seen is None or self.last_seen is None:
            return 0.0
        return (self.last_seen - self.first_seen).total_seconds() / 86400.0


class Table5Partial(protocol.AnalysisPartial):
    """Same-certificate-at-both-ends connections, grouped by
    (direction, SLD, issuer) (Table 5).

    ``issuer_public`` comes from the earliest witnessing connection
    (min ``(ts, uid)``), so any shard split elects the same witness.
    """

    def __init__(self, context: protocol.AnalysisContext) -> None:
        self.rows: dict[tuple[str, str, str], SameConnectionSharingRow] = {}
        #: row key → (ts, uid, server_public) of the earliest witness
        self.witness: dict[tuple[str, str, str], tuple] = {}

    def update(self, conn: EnrichedConn) -> None:
        if not conn.is_mutual:
            return
        server_leaf, client_leaf = conn.view.server_leaf, conn.view.client_leaf
        if server_leaf.fingerprint != client_leaf.fingerprint:
            return
        sni = conn.view.sni
        sld = extract_domain(sni).registrable if sni else "(missing SNI)"
        issuer_org = server_leaf.issuer_org or "(missing issuer)"
        key = (conn.direction, sld, issuer_org)
        row = self.rows.get(key)
        if row is None:
            row = SameConnectionSharingRow(
                direction=conn.direction, sld=sld, issuer_org=issuer_org,
                issuer_public=bool(conn.server_public),
            )
            self.rows[key] = row
        mark = (conn.view.ts, conn.view.ssl.uid, bool(conn.server_public))
        if key not in self.witness or mark < self.witness[key]:
            self.witness[key] = mark
            row.issuer_public = mark[2]
        row.clients.add(conn.view.ssl.id_orig_h)
        row.fingerprints.add(server_leaf.fingerprint)
        row.connections += 1
        ts = conn.view.ts
        if row.first_seen is None or ts < row.first_seen:
            row.first_seen = ts
        if row.last_seen is None or ts > row.last_seen:
            row.last_seen = ts

    def merge(self, other: "Table5Partial") -> None:
        for key, theirs in other.rows.items():
            mine = self.rows.get(key)
            if mine is None:
                mine = SameConnectionSharingRow(
                    direction=theirs.direction, sld=theirs.sld,
                    issuer_org=theirs.issuer_org,
                    issuer_public=theirs.issuer_public,
                )
                self.rows[key] = mine
            mine.clients |= theirs.clients
            mine.fingerprints |= theirs.fingerprints
            mine.connections += theirs.connections
            if theirs.first_seen is not None and (
                mine.first_seen is None or theirs.first_seen < mine.first_seen
            ):
                mine.first_seen = theirs.first_seen
            if theirs.last_seen is not None and (
                mine.last_seen is None or theirs.last_seen > mine.last_seen
            ):
                mine.last_seen = theirs.last_seen
            their_mark = other.witness.get(key)
            if their_mark is not None and (
                key not in self.witness or their_mark < self.witness[key]
            ):
                self.witness[key] = their_mark
                mine.issuer_public = their_mark[2]

    def result(self) -> list[SameConnectionSharingRow]:
        return sorted(
            self.rows.values(),
            key=lambda r: (r.direction, -len(r.clients), r.sld, r.issuer_org),
        )

    def finalize(self) -> Table:
        return render_same_connection_sharing(self.result())


protocol.register(protocol.Analysis(
    name="table5",
    title="Table 5: certificates shared by client and server in the same connection",
    factory=Table5Partial,
))


def render_same_connection_sharing(rows: list[SameConnectionSharingRow]) -> Table:
    table = Table(
        "Table 5: certificates shared by client and server in the same connection",
        ["Direction", "SLD", "Issuer org", "Public?",
         "#clients", "#certs", "#conns", "Activity (days)"],
    )
    for row in rows:
        table.add_row(
            row.direction, row.sld, row.issuer_org,
            "yes" if row.issuer_public else "no",
            len(row.clients), len(row.fingerprints), row.connections,
            f"{row.activity_days:.0f}",
        )
    return table


# ---------------------------------------------------------------------------
# Table 6: sharing across connections, /24-subnet spread
# ---------------------------------------------------------------------------


@dataclass
class SubnetSpread:
    """Quantiles of per-certificate subnet counts, by role (Table 6)."""

    shared_certificates: int
    server_quantiles: dict[int, int]
    client_quantiles: dict[int, int]
    top_issuer_orgs: list[tuple[str, int]]


def _quantiles(values: list[int]) -> dict[int, int]:
    if not values:
        return {50: 0, 75: 0, 99: 0, 100: 0}
    ordered = sorted(values)
    out = {}
    for q in (50, 75, 99, 100):
        index = min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))
        out[q] = ordered[index]
    return out


def _subnet_spread(profiles: dict) -> SubnetSpread:
    shared = [p for p in profiles.values() if p.shared_roles]
    server_counts = [len(p.server_subnets) for p in shared]
    client_counts = [len(p.client_subnets) for p in shared]
    from collections import Counter

    issuer_counter: Counter = Counter()
    for profile in shared:
        issuer_counter[profile.record.issuer_org or "(missing)"] += 1
    ranked = sorted(issuer_counter.items(), key=lambda item: (-item[1], item[0]))
    return SubnetSpread(
        shared_certificates=len(shared),
        server_quantiles=_quantiles(server_counts),
        client_quantiles=_quantiles(client_counts),
        top_issuer_orgs=ranked[:5],
    )


class Table6Partial(protocol.PopulationPartial):
    """Subnet spread of shared-role certificates (Table 6)."""

    def result(self) -> SubnetSpread:
        return _subnet_spread(self.store.profiles)

    def finalize(self) -> Table:
        return render_cross_connection_subnets(self.result())


protocol.register(protocol.Analysis(
    name="table6",
    title="Table 6: /24 subnets per certificate shared across server and client roles",
    factory=Table6Partial,
))


def cross_connection_subnets(enriched: EnrichedDataset) -> SubnetSpread:
    """Table 6: certificates used as server certs in some connections and
    client certs in others; how many /24 subnets each role spans."""
    return _subnet_spread(enriched.profiles)


# ---------------------------------------------------------------------------
# Extension: EKU/role mismatches (beyond the paper; §7 future-work flavor)
# ---------------------------------------------------------------------------


@dataclass
class EkuMismatchReport:
    """Certificates used in a role their Extended Key Usage forbids.

    The paper observes server certificates reused for client
    authentication (§5.2) but cannot check EKU from its logs. With EKU
    available, the misuse is directly measurable: a serverAuth-only
    certificate presented by a client violates RFC 5280 §4.2.1.12.
    """

    #: used as client but EKU lacks clientAuth
    client_violations: set[str] = field(default_factory=set)
    #: used as server but EKU lacks serverAuth
    server_violations: set[str] = field(default_factory=set)
    #: how many violating certs are also shared-role certs
    shared_violations: int = 0
    certificates_with_eku: int = 0


def eku_mismatch_report(enriched: EnrichedDataset) -> EkuMismatchReport:
    """Find EKU/role mismatches among certificates with an EKU extension."""
    report = EkuMismatchReport()
    for profile in enriched.profiles.values():
        record = profile.record
        if not record.eku:
            continue
        report.certificates_with_eku += 1
        violated = False
        if profile.used_as_client and not record.allows_client_auth:
            report.client_violations.add(record.fingerprint)
            violated = True
        if profile.used_as_server and not record.allows_server_auth:
            report.server_violations.add(record.fingerprint)
            violated = True
        if violated and profile.shared_roles:
            report.shared_violations += 1
    return report


def render_eku_mismatch(report: EkuMismatchReport) -> Table:
    table = Table(
        "Extension: EKU/role mismatches (server certs doing client auth)",
        ["Violation", "#certs"],
    )
    table.add_row("used as client without clientAuth", len(report.client_violations))
    table.add_row("used as server without serverAuth", len(report.server_violations))
    table.add_row("violations on shared-role certs", report.shared_violations)
    table.add_note(
        f"{report.certificates_with_eku} certificates carry an EKU extension"
    )
    table.add_note("not in the paper: its logs lacked EKU; this quantifies "
                   "the §5.2 reuse pattern directly")
    return table


def render_cross_connection_subnets(spread: SubnetSpread) -> Table:
    table = Table(
        "Table 6: /24 subnets per certificate shared across server and client roles",
        ["Role", "50th", "75th", "99th", "100th"],
    )
    table.add_row(
        "Server",
        *(spread.server_quantiles[q] for q in (50, 75, 99, 100)),
    )
    table.add_row(
        "Client",
        *(spread.client_quantiles[q] for q in (50, 75, 99, 100)),
    )
    table.add_note(f"shared certificates: {spread.shared_certificates}")
    top = ", ".join(f"{org} ({count})" for org, count in spread.top_issuer_orgs[:3])
    table.add_note(f"top issuers: {top}")
    return table
