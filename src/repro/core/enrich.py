"""Enrichment: direction, public/private, associations, interception.

Implements §3.2's methodology on top of the joined dataset:

- *inbound/outbound* from the responder address vs. the campus prefixes;
- *public vs private CA* from the trust-store DN bundle;
- *server association* categories for inbound traffic (Table 3);
- the *interception filter*: server leaves whose issuer is in no trust
  store are checked against CT; issuers that contradict the CT-logged
  issuer for the domain are flagged and all their certificates excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.core import addresses
from repro.core.dataset import CertProfile, ConnView, MtlsDataset
from repro.text.domains import extract_domain
from repro.trust import TrustBundle
from repro.x509.facts import CertFactCache, CertFacts
from repro.zeek import X509Record


class CtLookup(Protocol):
    """What the interception filter needs from a CT log."""

    def knows_domain(self, domain: str) -> bool: ...

    def issuers_for(self, domain: str) -> list[str]: ...


@dataclass(frozen=True)
class AssociationRules:
    """How inbound SNIs map onto server-association categories.

    Defaults match the simulated campus; a deployment would fill these
    with its own domains (the paper's authors did the equivalent
    manually for their university).
    """

    campus_sld: str = "university.edu"
    health_marker: str = "health"
    vpn_marker: str = "vpn"
    local_org_slds: frozenset[str] = frozenset({"localorg.org", "localclinic.org"})
    globus_sni: str = "FXP DCAU Cert"
    globus_issuer_org: str = "Globus Online"

    def classify(self, conn: ConnView) -> str:
        sni = conn.sni
        if sni == self.globus_sni:
            return "Globus"
        if not sni:
            issuer_org = conn.server_leaf.issuer_org if conn.server_leaf else None
            if issuer_org == self.globus_issuer_org:
                return "Globus"
            return "Unknown"
        parts = extract_domain(sni)
        if parts.registrable == self.campus_sld:
            subdomain = parts.subdomain
            if self.health_marker in subdomain.split("."):
                return "University Health"
            if self.vpn_marker in subdomain.split("."):
                return "University VPN"
            return "University Server"
        if parts.registrable in self.local_org_slds:
            return "Local Organization"
        if parts.registrable:
            return "Third Party Service"
        return "Unknown"


@dataclass
class EnrichedConn:
    """A connection with its §3.2 labels."""

    view: ConnView
    direction: str  # 'inbound' or 'outbound'
    server_public: bool | None  # None when no server cert was observed
    client_public: bool | None
    association: str | None  # inbound only
    #: Both leaves observed; set once by the enricher, read by every
    #: analysis for every connection.
    is_mutual: bool


@dataclass
class InterceptionReport:
    """Outcome of the interception filter (§3.2)."""

    flagged_issuers: set[str]
    excluded_fingerprints: set[str]
    total_certificates: int

    @property
    def excluded_fraction(self) -> float:
        if not self.total_certificates:
            return 0.0
        return len(self.excluded_fingerprints) / self.total_certificates


@dataclass
class EnrichedDataset:
    """The fully labeled dataset all downstream analyses consume."""

    dataset: MtlsDataset
    connections: list[EnrichedConn]
    bundle: TrustBundle
    interception: InterceptionReport
    rules: AssociationRules

    @property
    def profiles(self) -> dict[str, CertProfile]:
        """Unique leaf certificates of the (filtered) dataset, built on
        first use and cached by the dataset."""
        return self.dataset.certificate_profiles()

    @property
    def mutual(self) -> list[EnrichedConn]:
        return [c for c in self.connections if c.is_mutual]

    def mutual_profiles(self) -> dict[str, CertProfile]:
        return {fp: p for fp, p in self.profiles.items() if p.used_in_mutual}


def derive_cert_facts(record: X509Record, bundle: TrustBundle) -> CertFacts:
    """The per-certificate facts the pipeline consults repeatedly,
    computed once: the reference predicate is called verbatim, so cached
    answers are identical to uncached ones by construction."""
    return CertFacts(
        fingerprint=record.fingerprint, is_public=bundle.is_public(record)
    )


def new_fact_cache(
    bundle: TrustBundle, max_entries: int | None = None
) -> CertFactCache:
    """A fact cache bound to one trust bundle (caches are never shared
    across bundles — the bundle is part of every derived answer)."""
    def derive(record: X509Record) -> CertFacts:
        return derive_cert_facts(record, bundle)

    if max_entries is None:
        return CertFactCache(derive)
    return CertFactCache(derive, max_entries=max_entries)


class InterceptionScan:
    """Mergeable state behind the §3.2 interception filter.

    One scan per shard: :meth:`observe` folds in a raw connection view,
    :meth:`merge` combines shards, :meth:`finalize` applies the global
    distinct-domain threshold. The threshold must only run on the fully
    merged scan — a per-shard cut would miss issuers whose contradicting
    domains are spread across months.
    """

    def __init__(
        self,
        bundle: TrustBundle,
        ct_log: CtLookup | None,
        fact_cache: CertFactCache | None = None,
    ) -> None:
        self.bundle = bundle
        self.ct_log = ct_log
        #: Optional fact cache (usually the owning Enricher's): trades a
        #: per-connection public-CA derivation for a per-certificate one.
        self.fact_cache = fact_cache
        #: issuer DN → distinct SNI domains contradicting CT
        self.mismatched_domains: dict[str, set[str]] = {}
        #: issuer DN → leaf fingerprints presented under it (either side)
        self.issuer_fingerprints: dict[str, set[str]] = {}
        #: all distinct leaf fingerprints observed
        self.fingerprints: set[str] = set()

    def __getstate__(self) -> dict:
        # Scan outcomes ride pickled manifest spills; the cache is
        # process-local acceleration state, never part of the result.
        state = dict(self.__dict__)
        state["fact_cache"] = None
        return state

    def _leaf_public(self, leaf: X509Record) -> bool:
        if self.fact_cache is not None:
            return self.fact_cache.get(leaf.fingerprint, leaf).is_public
        return self.bundle.is_public(leaf)

    def observe(self, conn: ConnView) -> None:
        for leaf in (conn.server_leaf, conn.client_leaf):
            if leaf is None:
                continue
            self.fingerprints.add(leaf.fingerprint)
            self.issuer_fingerprints.setdefault(leaf.issuer, set()).add(
                leaf.fingerprint
            )
        leaf = conn.server_leaf
        if leaf is None or not conn.sni or self.ct_log is None:
            return
        # Step 1: issuer not found in major trust stores.
        if self._leaf_public(leaf):
            return
        # Step 2: CT knows the domain under a different issuer.
        domain = conn.sni.lower()
        if not self.ct_log.knows_domain(domain):
            return
        if leaf.issuer not in self.ct_log.issuers_for(domain):
            self.mismatched_domains.setdefault(leaf.issuer, set()).add(domain)

    def merge(self, other: "InterceptionScan") -> None:
        for issuer, domains in other.mismatched_domains.items():
            self.mismatched_domains.setdefault(issuer, set()).update(domains)
        for issuer, fps in other.issuer_fingerprints.items():
            self.issuer_fingerprints.setdefault(issuer, set()).update(fps)
        self.fingerprints |= other.fingerprints

    def finalize(self, min_interception_domains: int) -> InterceptionReport:
        # Step 3 (the paper's manual investigation): keep only issuers
        # contradicting CT across enough distinct domains.
        flagged = {
            issuer
            for issuer, domains in self.mismatched_domains.items()
            if len(domains) >= min_interception_domains
        }
        excluded: set[str] = set()
        for issuer in flagged:
            excluded |= self.issuer_fingerprints.get(issuer, set())
        return InterceptionReport(
            flagged_issuers=flagged,
            excluded_fingerprints=excluded,
            total_certificates=len(self.fingerprints),
        )


def render_interception_summary(report: InterceptionReport) -> "Table":
    from repro.core.report import Table

    table = Table(
        "§3.2: TLS interception filter",
        ["Flagged issuers", "Excluded certificates", "Excluded fraction"],
    )
    table.add_row(
        len(report.flagged_issuers),
        len(report.excluded_fingerprints),
        f"{100 * report.excluded_fraction:.2f}% (paper: 8.4%)",
    )
    return table


class Enricher:
    """Runs the §3.2 pipeline: interception filter + labels."""

    def __init__(
        self,
        bundle: TrustBundle,
        ct_log: CtLookup | None = None,
        is_internal: Callable[[str], bool] | None = None,
        rules: AssociationRules | None = None,
        filter_interception: bool = True,
        min_interception_domains: int = 5,
        fact_cache: CertFactCache | bool | None = True,
    ) -> None:
        self.bundle = bundle
        self.ct_log = ct_log
        self.is_internal = is_internal or addresses.is_internal
        self.rules = rules or AssociationRules()
        self.filter_interception = filter_interception
        #: Stand-in for the paper's manual investigation step: an issuer
        #: is only deemed an interception CA when it contradicts CT for
        #: at least this many distinct domains. A middlebox impersonates
        #: many domains; a misconfigured endpoint only its own few.
        self.min_interception_domains = min_interception_domains
        #: Per-certificate fact cache: ``True`` (default) builds one
        #: bound to this bundle, ``False``/``None`` disables it (the
        #: reference per-connection path), or pass a cache to share one
        #: across enrichers. Cached and uncached labels are identical —
        #: pinned by tests/differential/test_certfact_cache.py.
        if fact_cache is True:
            self.fact_cache: CertFactCache | None = new_fact_cache(bundle)
        elif fact_cache is False or fact_cache is None:
            self.fact_cache = None
        else:
            self.fact_cache = fact_cache

    def enrich(self, dataset: MtlsDataset) -> EnrichedDataset:
        report = self._interception_report(dataset)
        return self.enrich_with_report(dataset, report)

    def enrich_with_report(
        self, dataset: MtlsDataset, report: InterceptionReport
    ) -> EnrichedDataset:
        """Label a dataset under a precomputed (e.g. globally merged)
        interception report — the shard-worker entry point."""
        if self.filter_interception and report.excluded_fingerprints:
            dataset = dataset.without_fingerprints(report.excluded_fingerprints)
        connections = [self._label(conn) for conn in dataset.connections]
        return EnrichedDataset(
            dataset=dataset,
            connections=connections,
            bundle=self.bundle,
            interception=report,
            rules=self.rules,
        )

    def _is_public(self, record: X509Record) -> bool:
        if self.fact_cache is not None:
            return self.fact_cache.get(record.fingerprint, record).is_public
        return self.bundle.is_public(record)

    def label(self, conn: ConnView) -> EnrichedConn:
        """Label one raw connection view — the incremental entry point
        (same path batch enrichment takes per connection)."""
        return self._label(conn)

    def _label(self, conn: ConnView) -> EnrichedConn:
        direction = "inbound" if self.is_internal(conn.ssl.id_resp_h) else "outbound"
        server_public = (
            None if conn.server_leaf is None
            else self._is_public(conn.server_leaf)
        )
        client_public = (
            None if conn.client_leaf is None
            else self._is_public(conn.client_leaf)
        )
        association = self.rules.classify(conn) if direction == "inbound" else None
        return EnrichedConn(
            view=conn,
            direction=direction,
            server_public=server_public,
            client_public=client_public,
            association=association,
            is_mutual=conn.is_mutual,
        )

    def _interception_report(self, dataset: MtlsDataset) -> InterceptionReport:
        """§3.2: flag issuers that present certificates contradicting the
        CT-logged issuer of the requested domain."""
        scan = self.new_scan()
        for conn in dataset.connections:
            scan.observe(conn)
        return scan.finalize(self.min_interception_domains)

    def new_scan(self) -> InterceptionScan:
        """A fresh per-shard interception scan with this enricher's
        trust bundle, CT log (no CT when the filter is disabled), and
        fact cache — scan and labeling share one cache, so a
        certificate's facts are derived once across both passes."""
        ct_log = self.ct_log if self.filter_interception else None
        return InterceptionScan(self.bundle, ct_log, fact_cache=self.fact_cache)
