"""Trust stores and the public/private classification predicate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.x509 import Certificate, Name


@dataclass(frozen=True)
class TrustBundle:
    """Log-level view of a trust-store set.

    The analysis pipeline consumes Zeek logs, where issuers are DN
    *strings*; this bundle carries the subject DNs and organizations of
    every store-listed CA so the public/private predicate can be
    evaluated without certificate objects.
    """

    subject_dns: frozenset[str]
    organizations: frozenset[str]

    def knows_issuer_dn(self, issuer_dn: str) -> bool:
        return issuer_dn in self.subject_dns

    def knows_organization(self, organization: str | None) -> bool:
        if not organization:
            return False
        return _normalize_org(organization) in self.organizations

    def is_public(self, record) -> bool:
        """The paper's public-CA predicate at log level: the issuer DN or
        the issuer organization of an x509 record appears in at least
        one major trust store (§3.2)."""
        return self.knows_issuer_dn(record.issuer) or self.knows_organization(
            record.issuer_org
        )


#: Store names mirroring the four sources the paper consults (§3.2).
WELL_KNOWN_STORE_NAMES = ("mozilla-nss", "apple", "microsoft", "ccadb")


class TrustStore:
    """One root program: a set of trusted CA certificates.

    Membership is tracked three ways so the paper's predicate ("its root
    or intermediate certificate, or its issuer, is listed") can be
    evaluated cheaply:

    - by certificate fingerprint (exact trusted cert),
    - by subject DN of a trusted cert (an issuer whose cert is listed),
    - by organization name of a trusted cert (fuzzy issuer presence, the
      way CCADB lists issuer organizations).
    """

    def __init__(self, name: str, certificates: Iterable[Certificate] = ()) -> None:
        self.name = name
        self._fingerprints: set[str] = set()
        self._subject_dns: set[bytes] = set()
        self._organizations: set[str] = set()
        self._certificates: list[Certificate] = []
        for cert in certificates:
            self.add(cert)

    def add(self, cert: Certificate) -> None:
        """Add a trusted (root or intermediate) CA certificate."""
        fingerprint = cert.fingerprint()
        if fingerprint in self._fingerprints:
            return
        self._fingerprints.add(fingerprint)
        self._subject_dns.add(cert.subject.to_der())
        org = cert.subject.organization
        if org:
            self._organizations.add(_normalize_org(org))
        self._certificates.append(cert)

    def __len__(self) -> int:
        return len(self._certificates)

    def __iter__(self) -> Iterator[Certificate]:
        return iter(self._certificates)

    def contains_certificate(self, cert: Certificate) -> bool:
        return cert.fingerprint() in self._fingerprints

    def knows_issuer(self, issuer: Name) -> bool:
        """True when a trusted cert's subject equals this issuer DN."""
        return issuer.to_der() in self._subject_dns

    def knows_organization(self, organization: str | None) -> bool:
        if not organization:
            return False
        return _normalize_org(organization) in self._organizations

    def find_issuer_certificates(self, issuer: Name) -> list[Certificate]:
        """Trusted certs whose subject matches the given issuer DN."""
        issuer_der = issuer.to_der()
        return [c for c in self._certificates if c.subject.to_der() == issuer_der]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrustStore({self.name!r}, {len(self)} certificates)"


class TrustStoreSet:
    """The union of several root programs (§3.2 'major trust stores')."""

    def __init__(self, stores: Sequence[TrustStore] = ()) -> None:
        self.stores = list(stores)

    @classmethod
    def with_standard_stores(cls) -> "TrustStoreSet":
        """Empty Apple/Microsoft/NSS/CCADB stores, ready to be populated."""
        return cls([TrustStore(name) for name in WELL_KNOWN_STORE_NAMES])

    def store(self, name: str) -> TrustStore:
        for store in self.stores:
            if store.name == name:
                return store
        raise KeyError(f"no trust store named {name!r}")

    def add_to_all(self, cert: Certificate) -> None:
        for store in self.stores:
            store.add(cert)

    def contains_certificate(self, cert: Certificate) -> bool:
        return any(store.contains_certificate(cert) for store in self.stores)

    def knows_issuer(self, issuer: Name) -> bool:
        return any(store.knows_issuer(issuer) for store in self.stores)

    def knows_organization(self, organization: str | None) -> bool:
        return any(store.knows_organization(organization) for store in self.stores)

    def find_issuer_certificates(self, issuer: Name) -> list[Certificate]:
        seen: set[str] = set()
        found: list[Certificate] = []
        for store in self.stores:
            for cert in store.find_issuer_certificates(issuer):
                fingerprint = cert.fingerprint()
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    found.append(cert)
        return found

    def is_public_chain(self, chain: Sequence[Certificate]) -> bool:
        """The paper's predicate (§3.2 'Public and private').

        A certificate is deemed issued by a public CA when its root or
        intermediate certificate, or its issuer, is listed in at least one
        major trust store. `chain` is leaf-first; it may be just the leaf.
        """
        if not chain:
            return False
        leaf = chain[0]
        for cert in chain[1:]:
            if self.contains_certificate(cert):
                return True
            if self.knows_issuer(cert.issuer):
                return True
        if self.knows_issuer(leaf.issuer):
            return True
        return self.knows_organization(leaf.issuer.organization)

    def is_public_certificate(self, cert: Certificate) -> bool:
        """Single-certificate variant of the public-CA predicate."""
        return self.is_public_chain([cert])

    def dn_bundle(self) -> TrustBundle:
        """Export the DN-string view used by the log-level pipeline."""
        subject_dns: set[str] = set()
        organizations: set[str] = set()
        for store in self.stores:
            for cert in store:
                subject_dns.add(cert.subject.rfc4514())
                org = cert.subject.organization
                if org:
                    organizations.add(_normalize_org(org))
        return TrustBundle(frozenset(subject_dns), frozenset(organizations))


def _normalize_org(org: str) -> str:
    return " ".join(org.lower().split())
