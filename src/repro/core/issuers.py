"""Issuer categorization, Table 3, and the Figure 2 outbound flows.

The paper sorts client-certificate issuers into eight categories
(§4.2): Public, and Private - {Corporation, Education, Government,
WebHosting, Dummy, Others, MissingIssuer}, using trust-store membership,
fuzzy matching on the issuer-organization string, and manual review.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.core import protocol
from repro.core.enrich import EnrichedConn, EnrichedDataset
from repro.core.report import Table, percentage
from repro.text.fuzzy import normalize_org, org_matches_domain
from repro.text.domains import extract_domain
from repro.trust import TrustBundle
from repro.zeek import X509Record

#: Default organization strings of certificate-generation tooling.
DUMMY_ORGANIZATIONS = frozenset(
    normalize_org(org)
    for org in (
        "Internet Widgits Pty Ltd",
        "Default Company Ltd",
        "Unspecified",
        "Acme Co",
        "Example Inc",
        "Some Company",
    )
)

_EDUCATION_KEYWORDS = frozenset(
    "university college school academy institute campus education".split()
)
_GOVERNMENT_KEYWORDS = frozenset(
    "government federal commonwealth ministry municipality county city state agency".split()
)
_WEBHOSTING_KEYWORDS = frozenset("hosting webhost hostway dreamhost bluehost".split())
_CORPORATE_SUFFIXES = frozenset(
    "inc incorporated llc ltd limited corp corporation gmbh plc pty co ag bv sa".split()
)
_CORPORATE_KEYWORDS = frozenset(
    "technologies systems electronics networks software solutions services cloud "
    "medical authority international group holdings".split()
)

CATEGORIES = (
    "Public",
    "Private - Corporation",
    "Private - Education",
    "Private - Government",
    "Private - WebHosting",
    "Private - Dummy",
    "Private - Others",
    "Private - MissingIssuer",
)


def categorize_issuer(record: X509Record, bundle: TrustBundle) -> str:
    """Assign one of the paper's eight issuer categories to a certificate."""
    if bundle.is_public(record):
        return "Public"
    org = record.issuer_org
    if not org:
        return "Private - MissingIssuer"
    normalized = normalize_org(org)
    if not normalized:
        return "Private - MissingIssuer"
    if normalized in DUMMY_ORGANIZATIONS:
        return "Private - Dummy"
    tokens = set(normalized.split())
    raw_tokens = set(org.lower().replace(",", " ").replace(".", " ").split())
    if tokens & _EDUCATION_KEYWORDS:
        return "Private - Education"
    if tokens & _GOVERNMENT_KEYWORDS:
        return "Private - Government"
    if tokens & _WEBHOSTING_KEYWORDS:
        return "Private - WebHosting"
    if raw_tokens & _CORPORATE_SUFFIXES or tokens & _CORPORATE_KEYWORDS:
        return "Private - Corporation"
    return "Private - Others"


# ---------------------------------------------------------------------------
# Issuer diversity (§2.2 comparison with Chung et al. / Farhan et al.)
# ---------------------------------------------------------------------------


@dataclass
class IssuerDiversity:
    """How many distinct issuers stand behind a certificate population."""

    population_size: int
    distinct_issuers: int
    distinct_organizations: int
    top_organizations: list[tuple[str, int]]
    category_counts: Counter

    @property
    def certificates_per_issuer(self) -> float:
        if not self.distinct_issuers:
            return 0.0
        return self.population_size / self.distinct_issuers


def issuer_diversity(
    enriched: EnrichedDataset, role: str | None = None, mutual_only: bool = True
) -> IssuerDiversity:
    """Issuer diversity over the certificate population.

    Prior work (Chung et al. 2016, Farhan & Chung 2023) characterized the
    issuer diversity of invalid server certificates; this computes the
    same statistic over our populations, by role if requested.
    """
    issuers_seen: set[str] = set()
    organizations: Counter = Counter()
    categories: Counter = Counter()
    count = 0
    for profile in enriched.profiles.values():
        if mutual_only and not profile.used_in_mutual:
            continue
        if role is not None and profile.primary_role != role:
            continue
        count += 1
        record = profile.record
        issuers_seen.add(record.issuer)
        organizations[record.issuer_org or "(missing)"] += 1
        categories[categorize_issuer(record, enriched.bundle)] += 1
    return IssuerDiversity(
        population_size=count,
        distinct_issuers=len(issuers_seen),
        distinct_organizations=len(
            {org for org in organizations if org != "(missing)"}
        ),
        top_organizations=organizations.most_common(10),
        category_counts=categories,
    )


def render_issuer_diversity(diversity: IssuerDiversity, label: str) -> Table:
    table = Table(
        f"Issuer diversity: {label}",
        ["Metric", "Value"],
    )
    table.add_row("certificates", diversity.population_size)
    table.add_row("distinct issuer DNs", diversity.distinct_issuers)
    table.add_row("distinct issuer organizations", diversity.distinct_organizations)
    table.add_row("certificates per issuer", f"{diversity.certificates_per_issuer:.1f}")
    for org, count in diversity.top_organizations[:5]:
        table.add_row(f"top issuer: {org}", count)
    return table


# ---------------------------------------------------------------------------
# Table 3: inbound associations
# ---------------------------------------------------------------------------


@dataclass
class AssociationRow:
    association: str
    connection_share: float
    client_share: float
    primary_issuer: str
    primary_share: float
    secondary_issuer: str
    secondary_share: float


class Table3Partial(protocol.AnalysisPartial):
    """Per-association connection/client shares and top client issuers."""

    def __init__(self, context: protocol.AnalysisContext) -> None:
        self._bundle = context.bundle
        self.conns_by_assoc: Counter = Counter()
        # Plain dicts, not lambda-defaultdicts: partials must pickle.
        self.clients_by_assoc: dict[str, set[str]] = defaultdict(set)
        self.issuer_clients: dict[str, dict[str, set[str]]] = {}
        self.all_clients: set[str] = set()
        self.total_conns = 0

    def update_batch(self, conns: Sequence[EnrichedConn]) -> None:
        bundle = self._bundle
        conns_by_assoc = self.conns_by_assoc
        clients_by_assoc = self.clients_by_assoc
        issuer_clients = self.issuer_clients
        all_clients = self.all_clients
        for conn in conns:
            if not conn.is_mutual or conn.direction != "inbound":
                continue
            association = conn.association or "Unknown"
            self.total_conns += 1
            conns_by_assoc[association] += 1
            client_ip = conn.view.ssl.id_orig_h
            clients_by_assoc[association].add(client_ip)
            all_clients.add(client_ip)
            leaf = conn.view.client_leaf
            if leaf is not None:
                category = categorize_issuer(leaf, bundle)
                by_category = issuer_clients.setdefault(association, {})
                by_category.setdefault(category, set()).add(client_ip)

    def merge(self, other: "Table3Partial") -> None:
        self.total_conns += other.total_conns
        self.conns_by_assoc.update(other.conns_by_assoc)
        for association, clients in other.clients_by_assoc.items():
            self.clients_by_assoc[association] |= clients
        for association, by_category in other.issuer_clients.items():
            mine = self.issuer_clients.setdefault(association, {})
            for category, clients in by_category.items():
                mine[category] = mine.get(category, set()) | clients
        self.all_clients |= other.all_clients

    def result(self) -> list[AssociationRow]:
        rows = []
        # Sort by connection count, association name breaking ties, so
        # shard order can never reshuffle equal counts.
        ranked = sorted(
            self.conns_by_assoc.items(), key=lambda item: (-item[1], item[0])
        )
        for association, count in ranked:
            categories = sorted(
                self.issuer_clients.get(association, {}).items(),
                key=lambda item: (-len(item[1]), item[0]),
            )
            n_clients = len(self.clients_by_assoc[association]) or 1
            primary = categories[0] if categories else ("-", set())
            secondary = categories[1] if len(categories) > 1 else ("-", set())
            rows.append(
                AssociationRow(
                    association=association,
                    connection_share=(
                        count / self.total_conns if self.total_conns else 0.0
                    ),
                    client_share=(
                        len(self.clients_by_assoc[association]) / len(self.all_clients)
                        if self.all_clients else 0.0
                    ),
                    primary_issuer=primary[0],
                    primary_share=len(primary[1]) / n_clients,
                    secondary_issuer=secondary[0],
                    secondary_share=len(secondary[1]) / n_clients,
                )
            )
        return rows

    def finalize(self) -> Table:
        return render_inbound_association_table(self.result())


protocol.register(protocol.Analysis(
    name="table3",
    title="Table 3: inbound mutual TLS by server association",
    factory=Table3Partial,
))


def render_inbound_association_table(rows: list[AssociationRow]) -> Table:
    table = Table(
        "Table 3: inbound mutual TLS by server association",
        ["Server association", "% conns", "% clients",
         "Primary issuer", "% clients", "Secondary issuer", "% clients"],
    )
    for row in rows:
        table.add_row(
            row.association,
            f"{100 * row.connection_share:.2f}",
            f"{100 * row.client_share:.2f}",
            row.primary_issuer,
            f"{100 * row.primary_share:.2f}",
            row.secondary_issuer,
            f"{100 * row.secondary_share:.2f}",
        )
    return table


# ---------------------------------------------------------------------------
# Figure 2: outbound flows
# ---------------------------------------------------------------------------


@dataclass
class OutboundFlows:
    """Aggregates behind Figure 2's alluvial diagram."""

    #: (server cert Public/Private, TLD, client issuer category) → conns
    flows: Counter
    #: SLD → connection count (the amazonaws/rapid7/gpcloudservice ranking)
    sld_connections: Counter
    #: client issuer category → connection count
    client_categories: Counter
    total_connections: int
    #: connections with public server cert AND missing client issuer
    public_server_missing_client: int
    #: connections where client issuer org matches the destination SLD owner
    same_entity_connections: int

    @property
    def missing_issuer_share(self) -> float:
        if not self.total_connections:
            return 0.0
        return self.client_categories["Private - MissingIssuer"] / self.total_connections

    @property
    def public_server_missing_client_share(self) -> float:
        public_total = sum(
            count for (server, _tld, _cat), count in self.flows.items()
            if server == "Public"
        )
        if not public_total:
            return 0.0
        return self.public_server_missing_client / public_total


class Figure2Partial(protocol.AnalysisPartial):
    """Outbound mutual-TLS flow counters (Figure 2)."""

    def __init__(self, context: protocol.AnalysisContext) -> None:
        self._bundle = context.bundle
        self.flows: Counter = Counter()
        self.sld_connections: Counter = Counter()
        self.client_categories: Counter = Counter()
        self.total_connections = 0
        self.public_server_missing_client = 0
        self.same_entity_connections = 0

    def update_batch(self, conns: Sequence[EnrichedConn]) -> None:
        bundle = self._bundle
        flows = self.flows
        sld_connections = self.sld_connections
        client_categories = self.client_categories
        for conn in conns:
            if not conn.is_mutual or conn.direction != "outbound":
                continue
            self.total_connections += 1
            server_kind = "Public" if conn.server_public else "Private"
            sni = conn.view.ssl.server_name
            parts = extract_domain(sni) if sni else None
            tld = parts.suffix if parts and parts.suffix else "(missing SNI)"
            sld = parts.registrable if parts and parts.registrable else None
            if sld:
                sld_connections[sld] += 1
            client_leaf = conn.view.client_leaf
            category = (
                categorize_issuer(client_leaf, bundle)
                if client_leaf is not None else "Private - MissingIssuer"
            )
            client_categories[category] += 1
            flows[(server_kind, tld, category)] += 1
            if server_kind == "Public" and category == "Private - MissingIssuer":
                self.public_server_missing_client += 1
            if sld and client_leaf is not None:
                issuer_org = client_leaf.issuer_org
                if issuer_org and org_matches_domain(issuer_org, sld):
                    self.same_entity_connections += 1

    def merge(self, other: "Figure2Partial") -> None:
        self.flows.update(other.flows)
        self.sld_connections.update(other.sld_connections)
        self.client_categories.update(other.client_categories)
        self.total_connections += other.total_connections
        self.public_server_missing_client += other.public_server_missing_client
        self.same_entity_connections += other.same_entity_connections

    def result(self) -> OutboundFlows:
        return OutboundFlows(
            flows=self.flows,
            sld_connections=self.sld_connections,
            client_categories=self.client_categories,
            total_connections=self.total_connections,
            public_server_missing_client=self.public_server_missing_client,
            same_entity_connections=self.same_entity_connections,
        )

    def finalize(self) -> Table:
        return render_outbound_flows(self.result())


protocol.register(protocol.Analysis(
    name="figure2",
    title="Figure 2: outbound mutual TLS flows",
    factory=Figure2Partial,
))


def render_outbound_flows(result: OutboundFlows, top: int = 12) -> Table:
    table = Table(
        "Figure 2: outbound mutual TLS flows (server cert kind, TLD, client issuer)",
        ["Server cert", "TLD", "Client issuer category", "Conns", "% conns"],
    )
    ranked = sorted(result.flows.items(), key=lambda item: (-item[1], item[0]))
    for (server, tld, category), count in ranked[:top]:
        table.add_row(
            server, tld, category, count,
            percentage(count, result.total_connections),
        )
    table.add_note(
        f"missing client issuer overall: {100 * result.missing_issuer_share:.2f}% "
        "(paper: 37.84%)"
    )
    table.add_note(
        "public-server conns with missing client issuer: "
        f"{100 * result.public_server_missing_client_share:.2f}% (paper: 45.71%)"
    )
    return table
