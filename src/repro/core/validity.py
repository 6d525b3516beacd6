"""Certificate validity analyses: Figures 3-5, Tables 11-12 (§5.3)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core import protocol
from repro.core.enrich import EnrichedConn, EnrichedDataset
from repro.core.issuers import categorize_issuer
from repro.core.report import Table
from repro.text.domains import extract_domain
from repro.zeek import X509Record

# ---------------------------------------------------------------------------
# Figure 3 / Tables 11-12: incorrect (inverted) dates
# ---------------------------------------------------------------------------


@dataclass
class IncorrectDateRow:
    """One detected inverted-validity cohort (grouped by issuer + side)."""

    issuer_org: str
    side: str  # 'server' / 'client'
    slds: set[str] = field(default_factory=set)
    not_before_years: set[int] = field(default_factory=set)
    not_after_years: set[int] = field(default_factory=set)
    fingerprints: set[str] = field(default_factory=set)
    clients: set[str] = field(default_factory=set)
    first_seen: object = None
    last_seen: object = None

    @property
    def activity_days(self) -> float:
        if self.first_seen is None or self.last_seen is None:
            return 0.0
        return (self.last_seen - self.first_seen).total_seconds() / 86400.0

    def merge(self, other: "IncorrectDateRow") -> None:
        self.slds |= other.slds
        self.not_before_years |= other.not_before_years
        self.not_after_years |= other.not_after_years
        self.fingerprints |= other.fingerprints
        self.clients |= other.clients
        if other.first_seen is not None and (
            self.first_seen is None or other.first_seen < self.first_seen
        ):
            self.first_seen = other.first_seen
        if other.last_seen is not None and (
            self.last_seen is None or other.last_seen > self.last_seen
        ):
            self.last_seen = other.last_seen


class Figure3Partial(protocol.AnalysisPartial):
    """Inverted-validity certificates in mutual TLS (Figure 3)."""

    def __init__(self, context: protocol.AnalysisContext) -> None:
        self.rows: dict[tuple[str, str], IncorrectDateRow] = {}

    def update(self, conn: EnrichedConn) -> None:
        if not conn.is_mutual:
            return
        sni = conn.view.sni
        sld = extract_domain(sni).registrable if sni else "(missing SNI)"
        for side, leaf in (("server", conn.view.server_leaf),
                           ("client", conn.view.client_leaf)):
            if leaf is None:
                continue
            if leaf.not_valid_before < leaf.not_valid_after:
                continue
            key = (leaf.issuer_org or "(missing)", side)
            row = self.rows.get(key)
            if row is None:
                row = IncorrectDateRow(issuer_org=key[0], side=side)
                self.rows[key] = row
            row.slds.add(sld)
            row.not_before_years.add(leaf.not_valid_before.year)
            row.not_after_years.add(leaf.not_valid_after.year)
            row.fingerprints.add(leaf.fingerprint)
            row.clients.add(conn.view.ssl.id_orig_h)
            ts = conn.view.ts
            if row.first_seen is None or ts < row.first_seen:
                row.first_seen = ts
            if row.last_seen is None or ts > row.last_seen:
                row.last_seen = ts

    def merge(self, other: "Figure3Partial") -> None:
        for key, theirs in other.rows.items():
            mine = self.rows.get(key)
            if mine is None:
                mine = IncorrectDateRow(issuer_org=theirs.issuer_org, side=theirs.side)
                self.rows[key] = mine
            mine.merge(theirs)

    def result(self) -> list[IncorrectDateRow]:
        return sorted(
            self.rows.values(),
            key=lambda r: (-len(r.clients), r.issuer_org, r.side),
        )

    def finalize(self) -> Table:
        return render_incorrect_dates(self.result())


protocol.register(protocol.Analysis(
    name="figure3",
    title="Tables 11-12 / Figure 3: certificates with inverted validity dates",
    factory=Figure3Partial,
    legacy="repro.core.validity.incorrect_dates",
))


def incorrect_dates(enriched: EnrichedDataset) -> list[IncorrectDateRow]:
    """Certificates whose notBefore does not precede notAfter, seen in
    established mutual-TLS connections (Figure 3, Tables 11-12).

    Certificates whose two timestamps are identical are included, as in
    the paper (the ayoba.me row)."""
    partial = Figure3Partial(protocol.AnalysisContext.from_enriched(enriched))
    return protocol.feed(partial, enriched).result()


def incorrect_dates_both_endpoints(enriched: EnrichedDataset) -> list[IncorrectDateRow]:
    """Table 12: connections where BOTH endpoints present inverted-date
    certificates (idrive.com and the SDS missing-SNI cohort)."""
    rows: dict[str, IncorrectDateRow] = {}
    for conn in enriched.mutual:
        server_leaf, client_leaf = conn.view.server_leaf, conn.view.client_leaf
        if server_leaf is None or client_leaf is None:
            continue
        if server_leaf.not_valid_before < server_leaf.not_valid_after:
            continue
        if client_leaf.not_valid_before < client_leaf.not_valid_after:
            continue
        sni = conn.view.sni
        sld = extract_domain(sni).registrable if sni else "(missing SNI)"
        key = f"{sld}|{server_leaf.issuer_org}|{client_leaf.issuer_org}"
        row = rows.get(key)
        if row is None:
            row = IncorrectDateRow(
                issuer_org=server_leaf.issuer_org or "(missing)", side="both"
            )
            rows[key] = row
        row.slds.add(sld)
        row.fingerprints.add(server_leaf.fingerprint)
        row.fingerprints.add(client_leaf.fingerprint)
        row.clients.add(conn.view.ssl.id_orig_h)
        ts = conn.view.ts
        if row.first_seen is None or ts < row.first_seen:
            row.first_seen = ts
        if row.last_seen is None or ts > row.last_seen:
            row.last_seen = ts
    return sorted(rows.values(), key=lambda r: -len(r.clients))


def render_incorrect_dates(rows: list[IncorrectDateRow]) -> Table:
    table = Table(
        "Tables 11-12 / Figure 3: certificates with inverted validity dates",
        ["Issuer org", "Side", "SLDs", "notBefore years", "notAfter years",
         "#certs", "#clients", "Activity (days)"],
    )
    for row in rows:
        table.add_row(
            row.issuer_org, row.side,
            ", ".join(sorted(row.slds)[:3]),
            ", ".join(str(y) for y in sorted(row.not_before_years)[:3]),
            ", ".join(str(y) for y in sorted(row.not_after_years)[:3]),
            len(row.fingerprints), len(row.clients), f"{row.activity_days:.0f}",
        )
    return table


# ---------------------------------------------------------------------------
# Figure 4: validity periods
# ---------------------------------------------------------------------------


@dataclass
class ValidityPeriodStats:
    """Validity-period distribution of client certificates (Figure 4)."""

    #: issuer category → list of validity periods in days
    periods_by_category: dict[str, list[float]]
    extreme_certificates: int  # 10k-40k days
    extreme_public: int
    extreme_private: int
    longest_days: float
    longest_issuer_org: str | None
    longest_slds: set[str]

    def category_median(self, category: str) -> float:
        values = sorted(self.periods_by_category.get(category, ()))
        if not values:
            return 0.0
        return values[len(values) // 2]


class Figure4Partial(protocol.AnalysisPartial):
    """Validity periods of client certificates in mutual TLS (Figure 4).

    Keeps one record per client-certificate fingerprint; all statistics
    (including the longest-validity election, tie-broken by fingerprint)
    are computed at finalize time so shard splits cannot reorder them.
    """

    def __init__(
        self, context: protocol.AnalysisContext, direction: str | None = None
    ) -> None:
        self._bundle = context.bundle
        self.direction = direction
        self.records: dict[str, X509Record] = {}
        self.slds: dict[str, set[str]] = {}

    def update(self, conn: EnrichedConn) -> None:
        if not conn.is_mutual:
            return
        if self.direction is not None and conn.direction != self.direction:
            return
        leaf = conn.view.client_leaf
        if leaf is None or leaf.has_inverted_validity:
            return
        self.records.setdefault(leaf.fingerprint, leaf)
        slds = self.slds.setdefault(leaf.fingerprint, set())
        sni = conn.view.sni
        sld = extract_domain(sni).registrable if sni else ""
        if sld:
            slds.add(sld)

    def merge(self, other: "Figure4Partial") -> None:
        for fingerprint, record in other.records.items():
            self.records.setdefault(fingerprint, record)
        for fingerprint, slds in other.slds.items():
            mine = self.slds.setdefault(fingerprint, set())
            mine |= slds

    def result(self) -> ValidityPeriodStats:
        periods: dict[str, list[float]] = {}
        extreme = extreme_public = extreme_private = 0
        longest = 0.0
        longest_org: str | None = None
        longest_fp: str | None = None
        for fingerprint in sorted(self.records):
            leaf = self.records[fingerprint]
            category = categorize_issuer(leaf, self._bundle)
            periods.setdefault(category, []).append(leaf.validity_days)
            if 10_000 <= leaf.validity_days <= 40_000:
                extreme += 1
                if category == "Public":
                    extreme_public += 1
                else:
                    extreme_private += 1
            if leaf.validity_days > longest:
                longest = leaf.validity_days
                longest_org = leaf.issuer_org
                longest_fp = fingerprint
        return ValidityPeriodStats(
            periods_by_category=periods,
            extreme_certificates=extreme,
            extreme_public=extreme_public,
            extreme_private=extreme_private,
            longest_days=longest,
            longest_issuer_org=longest_org,
            longest_slds=self.slds.get(longest_fp, set()) if longest_fp else set(),
        )

    def finalize(self) -> Table:
        return render_validity_periods(self.result())


protocol.register(protocol.Analysis(
    name="figure4",
    title="Figure 4: client-certificate validity periods by issuer category",
    factory=Figure4Partial,
    legacy="repro.core.validity.validity_periods",
))


def validity_periods(
    enriched: EnrichedDataset, direction: str | None = None
) -> ValidityPeriodStats:
    """Figure 4: validity periods of client certificates used in mutual
    TLS, excluding inverted-date certificates, by issuer category."""
    partial = Figure4Partial(
        protocol.AnalysisContext.from_enriched(enriched), direction
    )
    return protocol.feed(partial, enriched).result()


def render_validity_periods(stats: ValidityPeriodStats) -> Table:
    table = Table(
        "Figure 4: client-certificate validity periods by issuer category",
        ["Issuer category", "#certs", "Median days", "Max days"],
    )
    for category, values in sorted(
        stats.periods_by_category.items(), key=lambda kv: (-len(kv[1]), kv[0])
    ):
        table.add_row(
            category, len(values),
            f"{sorted(values)[len(values) // 2]:.0f}",
            f"{max(values):.0f}",
        )
    table.add_note(
        f"certificates with 10k-40k-day validity: {stats.extreme_certificates} "
        f"({stats.extreme_public} public / {stats.extreme_private} private)"
    )
    table.add_note(
        f"longest validity: {stats.longest_days:.0f} days, issuer "
        f"{stats.longest_issuer_org!r}, SLDs {sorted(stats.longest_slds)}"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 5: expired certificates still in use
# ---------------------------------------------------------------------------


@dataclass
class ExpiredUsage:
    """One expired client certificate observed in established connections."""

    fingerprint: str
    issuer_org: str | None
    public: bool
    days_expired_at_first_use: float
    activity_days: float
    direction: str
    associations: set[str] = field(default_factory=set)
    slds: set[str] = field(default_factory=set)


@dataclass
class ExpiredReport:
    inbound: list[ExpiredUsage]
    outbound: list[ExpiredUsage]

    def inbound_association_shares(self) -> dict[str, float]:
        counter: Counter = Counter()
        for usage in self.inbound:
            for association in usage.associations or {"Unknown"}:
                counter[association] += 1
        total = sum(counter.values())
        return {k: v / total for k, v in counter.items()} if total else {}

    def outbound_cluster(
        self, min_days: float = 700.0
    ) -> list[ExpiredUsage]:
        """The Figure 5b cluster: public-CA certs long expired at first use."""
        return [
            u for u in self.outbound
            if u.public and u.days_expired_at_first_use >= min_days
        ]


@dataclass
class _ExpiredState:
    """Per-fingerprint partial state behind one ExpiredUsage."""

    issuer_org: str | None
    public: bool
    #: (ts, uid) of the earliest expired use — elects direction and
    #: days_expired_at_first_use deterministically under any shard split.
    witness: tuple
    direction: str
    days_expired: float
    associations: set[str] = field(default_factory=set)
    slds: set[str] = field(default_factory=set)


class Figure5Partial(protocol.AnalysisPartial):
    """Expired client certificates in established mutual TLS (Figure 5)."""

    def __init__(self, context: protocol.AnalysisContext) -> None:
        self.expired: dict[str, _ExpiredState] = {}
        #: fingerprint → [first_seen, last_seen] over ALL connections the
        #: certificate appears in (either side) — the profile activity span.
        self.activity: dict[str, list] = {}

    def update(self, conn: EnrichedConn) -> None:
        ts = conn.view.ts
        for leaf in (conn.view.server_leaf, conn.view.client_leaf):
            if leaf is None:
                continue
            span = self.activity.get(leaf.fingerprint)
            if span is None:
                self.activity[leaf.fingerprint] = [ts, ts]
            else:
                if ts < span[0]:
                    span[0] = ts
                if ts > span[1]:
                    span[1] = ts
        if not conn.is_mutual:
            return
        leaf = conn.view.client_leaf
        if leaf is None or leaf.has_inverted_validity:
            return
        if not leaf.expired_at(ts):
            return
        fp = leaf.fingerprint
        mark = (ts, conn.view.ssl.uid)
        state = self.expired.get(fp)
        if state is None:
            state = _ExpiredState(
                issuer_org=leaf.issuer_org,
                public=conn.client_public,
                witness=mark,
                direction=conn.direction,
                days_expired=leaf.days_expired(ts),
            )
            self.expired[fp] = state
        elif mark < state.witness:
            state.witness = mark
            state.direction = conn.direction
            state.days_expired = leaf.days_expired(ts)
        if conn.direction == "inbound" and conn.association:
            state.associations.add(conn.association)
        sni = conn.view.sni
        if sni:
            sld = extract_domain(sni).registrable
            if sld:
                state.slds.add(sld)

    def merge(self, other: "Figure5Partial") -> None:
        for fingerprint, span in other.activity.items():
            mine = self.activity.get(fingerprint)
            if mine is None:
                self.activity[fingerprint] = list(span)
            else:
                if span[0] < mine[0]:
                    mine[0] = span[0]
                if span[1] > mine[1]:
                    mine[1] = span[1]
        for fp, theirs in other.expired.items():
            state = self.expired.get(fp)
            if state is None:
                state = _ExpiredState(
                    issuer_org=theirs.issuer_org, public=theirs.public,
                    witness=theirs.witness, direction=theirs.direction,
                    days_expired=theirs.days_expired,
                )
                self.expired[fp] = state
            elif theirs.witness < state.witness:
                state.witness = theirs.witness
                state.direction = theirs.direction
                state.days_expired = theirs.days_expired
            state.associations |= theirs.associations
            state.slds |= theirs.slds

    def result(self) -> ExpiredReport:
        usages = []
        for fp, state in sorted(
            self.expired.items(), key=lambda item: (item[1].witness, item[0])
        ):
            span = self.activity.get(fp)
            activity_days = (
                (span[1] - span[0]).total_seconds() / 86400.0 if span else 0.0
            )
            usages.append(
                ExpiredUsage(
                    fingerprint=fp,
                    issuer_org=state.issuer_org,
                    public=state.public,
                    days_expired_at_first_use=state.days_expired,
                    activity_days=activity_days,
                    direction=state.direction,
                    associations=state.associations,
                    slds=state.slds,
                )
            )
        return ExpiredReport(
            inbound=[u for u in usages if u.direction == "inbound"],
            outbound=[u for u in usages if u.direction == "outbound"],
        )

    def finalize(self) -> Table:
        return render_expired_report(self.result())


protocol.register(protocol.Analysis(
    name="figure5",
    title="Figure 5: expired client certificates in established mutual TLS",
    factory=Figure5Partial,
    legacy="repro.core.validity.expired_certificates",
))


def expired_certificates(enriched: EnrichedDataset) -> ExpiredReport:
    """Figure 5: client certificates presented in established connections
    after their notAfter, with duration-of-activity tracking."""
    partial = Figure5Partial(protocol.AnalysisContext.from_enriched(enriched))
    return protocol.feed(partial, enriched).result()


def render_expired_report(report: ExpiredReport) -> Table:
    table = Table(
        "Figure 5: expired client certificates in established mutual TLS",
        ["Direction", "#certs", "Public", "Private",
         "Median days expired", "Max days expired"],
    )
    for direction, usages in (("inbound", report.inbound), ("outbound", report.outbound)):
        if not usages:
            table.add_row(direction, 0, 0, 0, "-", "-")
            continue
        days = sorted(u.days_expired_at_first_use for u in usages)
        table.add_row(
            direction, len(usages),
            sum(1 for u in usages if u.public),
            sum(1 for u in usages if not u.public),
            f"{days[len(days) // 2]:.0f}", f"{days[-1]:.0f}",
        )
    shares = report.inbound_association_shares()
    if shares:
        ranked = sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))
        table.add_note(
            "inbound associations: "
            + ", ".join(f"{k} {100 * v:.1f}%" for k, v in ranked[:4])
        )
    cluster = report.outbound_cluster()
    if cluster:
        apple = sum(1 for u in cluster if (u.issuer_org or "").startswith("Apple"))
        table.add_note(
            f"outbound long-expired public cluster: {len(cluster)} certs, "
            f"{apple} issued by Apple"
        )
    return table
