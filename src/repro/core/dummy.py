"""Dummy issuers (Table 4, Table 10) and serial collisions (§5.1.2)."""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.core import protocol
from repro.core.enrich import EnrichedConn, EnrichedDataset
from repro.core.issuers import DUMMY_ORGANIZATIONS
from repro.core.report import Table
from repro.text.domains import extract_domain
from repro.text.fuzzy import normalize_org


@functools.lru_cache(maxsize=65536)
def _is_dummy_org(org: str | None) -> bool:
    # Read for every leaf of every connection over a few dozen distinct
    # issuer organizations, so answers are cached.
    return bool(org) and normalize_org(org) in DUMMY_ORGANIZATIONS


@dataclass
class DummyIssuerRow:
    """One row of Table 4."""

    direction: str  # 'inbound' / 'outbound'
    side: str       # 'client' / 'server'
    issuer_org: str
    server_groups: set[str] = field(default_factory=set)
    servers: set[str] = field(default_factory=set)
    clients: set[str] = field(default_factory=set)
    connections: int = 0


class Table4Partial(protocol.AnalysisPartial):
    """Mutual-TLS connections using certificates whose issuer
    organization is a tooling default ('Internet Widgits Pty Ltd', ...)
    (Table 4)."""

    def __init__(self, context: protocol.AnalysisContext) -> None:
        self.rows: dict[tuple[str, str, str], DummyIssuerRow] = {}

    def update_batch(self, conns: Sequence[EnrichedConn]) -> None:
        rows = self.rows
        for conn in conns:
            if not conn.is_mutual:
                continue
            view = conn.view
            client_leaf, server_leaf = view.client_leaf, view.server_leaf
            client_dummy = _is_dummy_org(client_leaf.issuer_org)
            server_dummy = _is_dummy_org(server_leaf.issuer_org)
            if not (client_dummy or server_dummy):
                continue
            ssl = view.ssl
            sni = ssl.server_name
            parts = extract_domain(sni) if sni else None
            if conn.direction == "inbound":
                group = conn.association or "Unknown"
            else:
                group = parts.suffix if parts and parts.suffix else "(missing SNI)"
            for side, leaf, dummy in (("client", client_leaf, client_dummy),
                                      ("server", server_leaf, server_dummy)):
                if not dummy:
                    continue
                key = (conn.direction, side, leaf.issuer_org or "")
                row = rows.get(key)
                if row is None:
                    row = DummyIssuerRow(
                        direction=conn.direction, side=side, issuer_org=key[2]
                    )
                    rows[key] = row
                row.server_groups.add(group)
                row.servers.add(ssl.id_resp_h)
                row.clients.add(ssl.id_orig_h)
                row.connections += 1

    def merge(self, other: "Table4Partial") -> None:
        for key, theirs in other.rows.items():
            mine = self.rows.get(key)
            if mine is None:
                mine = DummyIssuerRow(
                    direction=theirs.direction, side=theirs.side,
                    issuer_org=theirs.issuer_org,
                )
                self.rows[key] = mine
            mine.server_groups |= theirs.server_groups
            mine.servers |= theirs.servers
            mine.clients |= theirs.clients
            mine.connections += theirs.connections

    def result(self) -> list[DummyIssuerRow]:
        return sorted(
            self.rows.values(),
            key=lambda r: (r.direction, r.side, -len(r.clients), r.issuer_org),
        )

    def finalize(self) -> Table:
        return render_dummy_issuer_table(self.result())


protocol.register(protocol.Analysis(
    name="table4",
    title="Table 4: certificates with dummy issuers in mutual TLS",
    factory=Table4Partial,
))


def render_dummy_issuer_table(rows: list[DummyIssuerRow]) -> Table:
    table = Table(
        "Table 4: certificates with dummy issuers in mutual TLS",
        ["Direction", "Side", "Dummy issuer organization",
         "Server groups", "#servers", "#clients", "#conns"],
    )
    for row in rows:
        table.add_row(
            row.direction, row.side, row.issuer_org,
            ", ".join(sorted(row.server_groups)[:4]),
            len(row.servers), len(row.clients), row.connections,
        )
    return table


@dataclass
class DummyBothEndpointsRow:
    """One row of Table 10: dummy issuers at BOTH endpoints."""

    sld: str
    client_issuer_org: str
    server_issuer_org: str
    clients: set[str] = field(default_factory=set)
    first_seen: object = None
    last_seen: object = None
    connections: int = 0

    @property
    def activity_days(self) -> float:
        if self.first_seen is None or self.last_seen is None:
            return 0.0
        return (self.last_seen - self.first_seen).total_seconds() / 86400.0


def dummy_both_endpoints(enriched: EnrichedDataset) -> list[DummyBothEndpointsRow]:
    """Table 10 / §5.1.1: connections where both the server and the
    client certificate carry dummy issuer organizations."""
    rows: dict[tuple[str, str, str], DummyBothEndpointsRow] = {}
    for conn in enriched.mutual:
        server_leaf, client_leaf = conn.view.server_leaf, conn.view.client_leaf
        if server_leaf is None or client_leaf is None:
            continue
        if not (_is_dummy_org(server_leaf.issuer_org) and _is_dummy_org(client_leaf.issuer_org)):
            continue
        sni = conn.view.sni
        sld = extract_domain(sni).registrable if sni else "(missing SNI)"
        key = (sld, client_leaf.issuer_org or "", server_leaf.issuer_org or "")
        row = rows.get(key)
        if row is None:
            row = DummyBothEndpointsRow(
                sld=sld, client_issuer_org=key[1], server_issuer_org=key[2]
            )
            rows[key] = row
        row.clients.add(conn.view.ssl.id_orig_h)
        row.connections += 1
        ts = conn.view.ts
        if row.first_seen is None or ts < row.first_seen:
            row.first_seen = ts
        if row.last_seen is None or ts > row.last_seen:
            row.last_seen = ts
    return sorted(rows.values(), key=lambda r: -len(r.clients))


# ---------------------------------------------------------------------------
# §5.1.2: dummy certificate serial numbers
# ---------------------------------------------------------------------------


@dataclass
class SerialCollisionGroup:
    """Certificates sharing one (issuer, serial) pair."""

    issuer: str
    issuer_org: str | None
    serial: str
    fingerprints: set[str] = field(default_factory=set)
    server_certs: int = 0
    client_certs: int = 0
    clients: set[str] = field(default_factory=set)
    connections: int = 0


@dataclass
class SerialCollisionReport:
    direction: str
    groups: list[SerialCollisionGroup]

    @property
    def total_clients(self) -> set[str]:
        clients: set[str] = set()
        for group in self.groups:
            clients |= group.clients
        return clients


class SerialCollisionsPartial(protocol.AnalysisPartial):
    """(issuer, serial) pairs covering >1 certificate (§5.1.2).

    Collision membership is only decidable globally, so the partial
    accumulates *all* (issuer, serial) pairs plus per-certificate role
    flags and filters to the colliding ones at finalize time.
    """

    def __init__(self, context: protocol.AnalysisContext, direction: str) -> None:
        self.direction = direction
        #: (issuer, serial) → member fingerprints
        self.members: dict[tuple[str, str], set[str]] = {}
        #: (issuer, serial) → issuer_org of the certificates
        self.issuer_orgs: dict[tuple[str, str], str | None] = {}
        #: (issuer, serial) → per-side occurrence count in this direction
        self.occurrences: Counter = Counter()
        #: (issuer, serial) → client IPs of the connections presenting it
        self.clients: dict[tuple[str, str], set[str]] = {}
        #: fingerprint → [used_as_server, used_as_client] over ALL
        #: connections (matching CertProfile roles)
        self.roles: dict[str, list[bool]] = {}

    def update_batch(self, conns: Sequence[EnrichedConn]) -> None:
        roles = self.roles
        direction = self.direction
        members, issuer_orgs = self.members, self.issuer_orgs
        occurrences, clients = self.occurrences, self.clients
        for conn in conns:
            view = conn.view
            server_leaf, client_leaf = view.server_leaf, view.client_leaf
            if server_leaf is not None:
                flags = roles.get(server_leaf.fingerprint)
                if flags is None:
                    roles[server_leaf.fingerprint] = [True, False]
                else:
                    flags[0] = True
            if client_leaf is not None:
                flags = roles.get(client_leaf.fingerprint)
                if flags is None:
                    roles[client_leaf.fingerprint] = [False, True]
                else:
                    flags[1] = True
            if not conn.is_mutual or conn.direction != direction:
                continue
            for leaf in (server_leaf, client_leaf):
                key = (leaf.issuer, leaf.serial)
                members.setdefault(key, set()).add(leaf.fingerprint)
                issuer_orgs.setdefault(key, leaf.issuer_org)
                occurrences[key] += 1
                clients.setdefault(key, set()).add(view.ssl.id_orig_h)

    def merge(self, other: "SerialCollisionsPartial") -> None:
        for key, fps in other.members.items():
            self.members.setdefault(key, set()).update(fps)
        for key, org in other.issuer_orgs.items():
            self.issuer_orgs.setdefault(key, org)
        self.occurrences.update(other.occurrences)
        for key, ips in other.clients.items():
            self.clients.setdefault(key, set()).update(ips)
        for fingerprint, theirs in other.roles.items():
            mine = self.roles.setdefault(fingerprint, [False, False])
            mine[0] = mine[0] or theirs[0]
            mine[1] = mine[1] or theirs[1]

    def result(self) -> SerialCollisionReport:
        groups = []
        for key, fps in self.members.items():
            if len(fps) < 2:
                continue
            issuer, serial = key
            groups.append(
                SerialCollisionGroup(
                    issuer=issuer,
                    issuer_org=self.issuer_orgs.get(key),
                    serial=serial,
                    fingerprints=set(fps),
                    server_certs=sum(1 for fp in fps if self.roles[fp][0]),
                    client_certs=sum(1 for fp in fps if self.roles[fp][1]),
                    clients=set(self.clients.get(key, set())),
                    connections=self.occurrences[key],
                )
            )
        groups.sort(key=lambda g: (-len(g.fingerprints), g.issuer, g.serial))
        return SerialCollisionReport(direction=self.direction, groups=groups)

    def finalize(self) -> Table:
        return render_serial_collisions(self.result())


def _serials_inbound_factory(context: protocol.AnalysisContext) -> SerialCollisionsPartial:
    return SerialCollisionsPartial(context, "inbound")


def _serials_outbound_factory(context: protocol.AnalysisContext) -> SerialCollisionsPartial:
    return SerialCollisionsPartial(context, "outbound")


protocol.register(protocol.Analysis(
    name="serials-inbound",
    title="Serial-number collisions within one issuer (inbound, §5.1.2)",
    factory=_serials_inbound_factory,
))
protocol.register(protocol.Analysis(
    name="serials-outbound",
    title="Serial-number collisions within one issuer (outbound, §5.1.2)",
    factory=_serials_outbound_factory,
))


# ---------------------------------------------------------------------------
# §5.1.1: weak cryptography among dummy-issuer certificates
# ---------------------------------------------------------------------------


@dataclass
class WeakCryptoReport:
    """Version-1 certificates and short RSA keys among dummy-issuer certs.

    The paper finds 3 'Internet Widgits Pty Ltd' certificates at X.509
    version 1.0 (154 unique connection tuples) and 13 'Unspecified'
    certificates with 1024-bit keys (83 tuples); NIST disallowed 1024-bit
    keys after 2013.
    """

    v1_fingerprints: set[str] = field(default_factory=set)
    v1_tuples: int = 0
    weak_key_fingerprints: set[str] = field(default_factory=set)
    weak_key_tuples: int = 0


class WeakCryptoPartial(protocol.AnalysisPartial):
    """v1 / short-key dummy-issuer certificates and their tuples (§5.1.1).

    Tuple counts need the global tuple set, and mutual use is a global
    property, so the partial keeps candidate fingerprints and the mutual
    connection tuples and intersects at finalize time.
    """

    def __init__(
        self, context: protocol.AnalysisContext, weak_bits: int = 1024
    ) -> None:
        self.weak_bits = weak_bits
        self.v1_candidates: set[str] = set()
        self.weak_candidates: set[str] = set()
        self.mutual_fps: set[str] = set()
        #: all unique mutual connection tuples (§5 'Connection tuple')
        self.tuples: set[tuple[str, str, str, str]] = set()

    def update_batch(self, conns: Sequence[EnrichedConn]) -> None:
        mutual_fps, tuples = self.mutual_fps, self.tuples
        # Candidacy is a property of the certificate: test each distinct
        # leaf of the batch once.
        leaves = {}
        for conn in conns:
            view = conn.view
            server_leaf, client_leaf = view.server_leaf, view.client_leaf
            if server_leaf is not None:
                leaves[server_leaf.fingerprint] = server_leaf
            if client_leaf is not None:
                leaves[client_leaf.fingerprint] = client_leaf
            if conn.is_mutual:
                mutual_fps.add(server_leaf.fingerprint)
                mutual_fps.add(client_leaf.fingerprint)
                tuples.add((
                    view.ssl.id_orig_h, client_leaf.fingerprint,
                    view.ssl.id_resp_h, server_leaf.fingerprint,
                ))
        for fingerprint, leaf in leaves.items():
            if not _is_dummy_org(leaf.issuer_org):
                continue
            if leaf.version == 1:
                self.v1_candidates.add(fingerprint)
            if 0 < leaf.key_length <= self.weak_bits:
                self.weak_candidates.add(fingerprint)

    def merge(self, other: "WeakCryptoPartial") -> None:
        self.v1_candidates |= other.v1_candidates
        self.weak_candidates |= other.weak_candidates
        self.mutual_fps |= other.mutual_fps
        self.tuples |= other.tuples

    def result(self) -> WeakCryptoReport:
        v1 = self.v1_candidates & self.mutual_fps
        weak = self.weak_candidates & self.mutual_fps

        def tuple_count(fps: set[str]) -> int:
            return sum(1 for t in self.tuples if t[1] in fps or t[3] in fps)

        return WeakCryptoReport(
            v1_fingerprints=v1,
            v1_tuples=tuple_count(v1),
            weak_key_fingerprints=weak,
            weak_key_tuples=tuple_count(weak),
        )

    def finalize(self) -> Table:
        return render_weak_crypto(self.result())


protocol.register(protocol.Analysis(
    name="weak-crypto",
    title="§5.1.1: weak cryptography in dummy-issuer certificates",
    factory=WeakCryptoPartial,
))


def render_weak_crypto(report: WeakCryptoReport) -> Table:
    table = Table(
        "§5.1.1: weak cryptography in dummy-issuer certificates",
        ["Defect", "#certs", "#connection tuples"],
    )
    table.add_row("X.509 version 1", len(report.v1_fingerprints), report.v1_tuples)
    table.add_row(
        "RSA key <= 1024 bits", len(report.weak_key_fingerprints),
        report.weak_key_tuples,
    )
    table.add_note("paper: 3 v1 certs / 154 tuples; 13 certs with 1024-bit "
                   "keys / 83 tuples (NIST disallowed 1024-bit after 2013)")
    return table


def render_serial_collisions(report: SerialCollisionReport, top: int = 8) -> Table:
    table = Table(
        f"Serial-number collisions within one issuer ({report.direction}, §5.1.2)",
        ["Issuer org", "Serial", "#certs", "#server certs", "#client certs",
         "#clients", "#conns"],
    )
    for group in report.groups[:top]:
        table.add_row(
            group.issuer_org or "(missing)", group.serial,
            len(group.fingerprints), group.server_certs, group.client_certs,
            len(group.clients), group.connections,
        )
    table.add_note(f"clients involved overall: {len(report.total_clients)}")
    return table
