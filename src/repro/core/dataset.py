"""Joining ssl.log and x509.log into an analyzable dataset."""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.addresses import subnet24
from repro.zeek import SslRecord, X509Record
from repro.zeek.builder import ZeekLogs


def presents_any(ssl: SslRecord, fuids: set[str]) -> bool:
    """True when either certificate chain of the connection holds one of
    the fuids (the interception filter's drop predicate)."""
    return not (
        fuids.isdisjoint(ssl.cert_chain_fuids)
        and fuids.isdisjoint(ssl.client_cert_chain_fuids)
    )


def remember_fuid(fuids: dict, fuid: str, value, bound: int | None) -> bool:
    """Map ``fuid`` to ``value`` as the newest entry of a bounded fuid map.

    A re-announced fuid moves to the newest place; once the map holds
    more than ``bound`` entries (None = unbounded), the oldest is
    evicted. Returns True when an entry was evicted. Dict insertion
    order is the recency order, so it survives a checkpoint.
    """
    fuids.pop(fuid, None)
    fuids[fuid] = value
    if bound is not None and len(fuids) > bound:
        del fuids[next(iter(fuids))]
        return True
    return False


@dataclass
class ConnView:
    """One established connection joined with its leaf certificates."""

    ssl: SslRecord
    server_leaf: X509Record | None
    client_leaf: X509Record | None

    @property
    def is_mutual(self) -> bool:
        return self.server_leaf is not None and self.client_leaf is not None

    @property
    def ts(self) -> _dt.datetime:
        return self.ssl.ts

    @property
    def sni(self) -> str | None:
        return self.ssl.server_name


@dataclass
class CertProfile:
    """Aggregate view of one unique leaf certificate across the campaign."""

    record: X509Record
    used_as_server: bool = False
    used_as_client: bool = False
    used_in_mutual: bool = False
    first_seen: _dt.datetime | None = None
    last_seen: _dt.datetime | None = None
    connection_count: int = 0
    #: /24 subnets of the endpoint that presented the certificate,
    #: split by role (Table 6).
    server_subnets: set[str] = field(default_factory=set)
    client_subnets: set[str] = field(default_factory=set)
    #: distinct client IPs involved in this certificate's connections.
    client_ips: set[str] = field(default_factory=set)

    @property
    def fingerprint(self) -> str:
        return self.record.fingerprint

    @property
    def primary_role(self) -> str:
        """'server' wins ties: a cert ever presented by a server counts as
        a server certificate (certs used by both are analyzed separately
        in the sharing module / Table 13)."""
        return "server" if self.used_as_server else "client"

    @property
    def shared_roles(self) -> bool:
        return self.used_as_server and self.used_as_client

    @property
    def activity_days(self) -> float:
        """The paper's 'duration of activity' (§5)."""
        if self.first_seen is None or self.last_seen is None:
            return 0.0
        return (self.last_seen - self.first_seen).total_seconds() / 86400.0

    def merge(self, other: "CertProfile") -> None:
        """Fold another partial profile of the same certificate in."""
        self.used_as_server = self.used_as_server or other.used_as_server
        self.used_as_client = self.used_as_client or other.used_as_client
        self.used_in_mutual = self.used_in_mutual or other.used_in_mutual
        if other.first_seen is not None and (
            self.first_seen is None or other.first_seen < self.first_seen
        ):
            self.first_seen = other.first_seen
        if other.last_seen is not None and (
            self.last_seen is None or other.last_seen > self.last_seen
        ):
            self.last_seen = other.last_seen
        self.connection_count += other.connection_count
        self.server_subnets |= other.server_subnets
        self.client_subnets |= other.client_subnets
        self.client_ips |= other.client_ips


class ProfileStore:
    """Incremental, mergeable builder of :class:`CertProfile` aggregates.

    Used both by :meth:`MtlsDataset.certificate_profiles` (one pass over
    the whole dataset) and by the population partials that rebuild the
    profile population shard by shard (see
    :class:`repro.core.protocol.PopulationPartial`). Merging stores built
    from a chronological shard split reproduces the whole-stream profile
    dict, including its first-occurrence insertion order.
    """

    def __init__(self) -> None:
        self.profiles: dict[str, CertProfile] = {}

    def observe_batch(self, views: Iterable["ConnView"]) -> None:
        """Fold a batch of connection views into the profiles, in order.

        The two roles are written out rather than looped over: this is
        the hottest fold of a campaign.
        """
        profiles = self.profiles
        for view in views:
            ssl = view.ssl
            ts = ssl.ts
            client_ip = ssl.id_orig_h
            server_leaf = view.server_leaf
            client_leaf = view.client_leaf
            mutual = server_leaf is not None and client_leaf is not None
            if server_leaf is not None:
                profile = profiles.get(server_leaf.fingerprint)
                if profile is None:
                    profile = CertProfile(record=server_leaf)
                    profiles[server_leaf.fingerprint] = profile
                profile.used_as_server = True
                if mutual:
                    profile.used_in_mutual = True
                if profile.first_seen is None or ts < profile.first_seen:
                    profile.first_seen = ts
                if profile.last_seen is None or ts > profile.last_seen:
                    profile.last_seen = ts
                profile.connection_count += 1
                profile.server_subnets.add(subnet24(ssl.id_resp_h))
                profile.client_ips.add(client_ip)
            if client_leaf is not None:
                profile = profiles.get(client_leaf.fingerprint)
                if profile is None:
                    profile = CertProfile(record=client_leaf)
                    profiles[client_leaf.fingerprint] = profile
                profile.used_as_client = True
                if mutual:
                    profile.used_in_mutual = True
                if profile.first_seen is None or ts < profile.first_seen:
                    profile.first_seen = ts
                if profile.last_seen is None or ts > profile.last_seen:
                    profile.last_seen = ts
                profile.connection_count += 1
                profile.client_subnets.add(subnet24(client_ip))
                profile.client_ips.add(client_ip)

    def merge(self, other: "ProfileStore") -> None:
        for fingerprint, theirs in other.profiles.items():
            mine = self.profiles.get(fingerprint)
            if mine is None:
                adopted = CertProfile(record=theirs.record)
                adopted.merge(theirs)
                self.profiles[fingerprint] = adopted
            else:
                mine.merge(theirs)


class MtlsDataset:
    """The joined dataset: established connections + unique leaf certs.

    Only *established* connections are analyzed (§3.2.1). Certificates
    are deduplicated by fingerprint; the leaf of each chain is the first
    fuid in the chain vector.
    """

    def __init__(
        self,
        ssl_records: Iterable[SslRecord],
        x509_records: Iterable[X509Record],
        ingest_report=None,
    ):
        self._x509_by_fuid: dict[str, X509Record] = {
            record.fuid: record for record in x509_records
        }
        self.connections: list[ConnView] = []
        #: The IngestReport of the read that produced the records, when
        #: they came through a lenient reader (None otherwise).
        self.ingest_report = ingest_report
        #: Leaf references whose fuid had no x509 row (corrupt or
        #: dropped x509 stream); the connection is kept, the join is None.
        self.dangling_fuid_refs = 0
        self.dropped_unestablished = 0
        self._profiles: dict[str, CertProfile] | None = None
        self.extend_ssl(ssl_records)

    @classmethod
    def from_logs(cls, logs: ZeekLogs, ingest_report=None) -> "MtlsDataset":
        return cls(logs.ssl, logs.x509, ingest_report=ingest_report)

    def _leaf(self, fuid: str | None) -> X509Record | None:
        if fuid is None:
            return None
        return self._x509_by_fuid.get(fuid)

    def _join_leaf(self, fuid: str | None) -> X509Record | None:
        leaf = self._leaf(fuid)
        if fuid is not None and leaf is None:
            self.dangling_fuid_refs += 1
        return leaf

    def extend_ssl(self, ssl_records: Iterable[SslRecord]) -> list[ConnView]:
        """Join a further batch of ssl records against the loaded x509
        stream and return the newly added connection views.

        The incremental entry point of the pipelined shard loader: a
        dataset built from ``()`` plus any batch split of a record
        stream equals one built from the whole stream at once — same
        connections, same drop and dangling accounting.
        """
        new: list[ConnView] = []
        for ssl in ssl_records:
            if not ssl.established:
                self.dropped_unestablished += 1
                continue
            conn = ConnView(
                ssl=ssl,
                server_leaf=self._join_leaf(ssl.server_leaf_fuid),
                client_leaf=self._join_leaf(ssl.client_leaf_fuid),
            )
            self.connections.append(conn)
            new.append(conn)
        if new:
            self._profiles = None
        return new

    def fuids_of(self, fingerprints: set[str]) -> set[str]:
        """The fuids of every loaded x509 record whose fingerprint is in
        the given set (the interception filter's exclusion key)."""
        return {
            r.fuid
            for r in self._x509_by_fuid.values()
            if r.fingerprint in fingerprints
        }

    def __len__(self) -> int:
        return len(self.connections)

    def __iter__(self) -> Iterator[ConnView]:
        return iter(self.connections)

    @property
    def mutual_connections(self) -> list[ConnView]:
        return [c for c in self.connections if c.is_mutual]

    def x509_record(self, fuid: str) -> X509Record | None:
        return self._x509_by_fuid.get(fuid)

    def certificate_profiles(self) -> dict[str, CertProfile]:
        """Unique leaf certificates with aggregated usage (cached)."""
        if self._profiles is not None:
            return self._profiles
        store = ProfileStore()
        store.observe_batch(self.connections)
        self._profiles = store.profiles
        return self._profiles

    def without_fingerprints(self, excluded: set[str]) -> "MtlsDataset":
        """A copy of the dataset with the given certificates (and the
        connections presenting them) removed — used by the interception
        filter.

        Equal to rebuilding the dataset from the kept rows, without the
        re-join: a kept connection's chains hold no removed fuid, so its
        leaves join exactly as before and its views are reused.
        """
        excluded_fuids = self.fuids_of(excluded)
        kept = MtlsDataset((), (), ingest_report=self.ingest_report)
        kept._x509_by_fuid = {
            fuid: record
            for fuid, record in self._x509_by_fuid.items()
            if fuid not in excluded_fuids
        }
        for conn in self.connections:
            if presents_any(conn.ssl, excluded_fuids):
                continue
            kept.connections.append(conn)
            ssl = conn.ssl
            if ssl.cert_chain_fuids and conn.server_leaf is None:
                kept.dangling_fuid_refs += 1
            if ssl.client_cert_chain_fuids and conn.client_leaf is None:
                kept.dangling_fuid_refs += 1
        return kept
