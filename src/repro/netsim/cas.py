"""The certificate-authority universe of the simulated campus world.

Builds the public root programs (and registers them in the trust
stores), the private CAs the paper's cohorts rely on (campus CAs,
missing-issuer CAs, dummy-issuer CAs, Globus Online, GuardiCore, ...),
and the interception proxies. Private CAs are cached by identity so the
same logical issuer signs consistently across the whole campaign.
"""

from __future__ import annotations

import datetime as _dt
import random
from repro.tls.interception import InterceptionProxy
from repro.trust import TrustStoreSet
from repro.x509 import (
    CertificateAuthority,
    KeyFactory,
    Name,
    SerialPolicy,
    ValidityPolicy,
)

UTC = _dt.timezone.utc
_ROOT_BIRTH = _dt.datetime(2015, 1, 1, tzinfo=UTC)

#: label → (root CN, organization, store names carrying it)
PUBLIC_CA_CATALOG: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "digicert": (
        "DigiCert Global Root G2", "DigiCert Inc",
        ("mozilla-nss", "apple", "microsoft", "ccadb"),
    ),
    "lets-encrypt": (
        "ISRG Root X1", "Internet Security Research Group",
        ("mozilla-nss", "apple", "microsoft", "ccadb"),
    ),
    "sectigo": (
        "Sectigo Root R46", "Sectigo Limited",
        ("mozilla-nss", "microsoft", "ccadb"),
    ),
    "godaddy": (
        "GoDaddy Root Certificate Authority - G2", "GoDaddy.com, Inc.",
        ("mozilla-nss", "apple", "microsoft", "ccadb"),
    ),
    "identrust": (
        "IdenTrust Commercial Root CA 1", "IdenTrust",
        ("mozilla-nss", "microsoft", "ccadb"),
    ),
    "apple": (
        "Apple Root CA", "Apple",
        ("apple", "ccadb"),
    ),
    "microsoft": (
        "Microsoft RSA Root Certificate Authority 2017", "Microsoft",
        ("microsoft", "ccadb"),
    ),
    "amazon": (
        "Amazon Root CA 1", "Amazon",
        ("mozilla-nss", "apple", "microsoft", "ccadb"),
    ),
    "fnmt": (
        "AC RAIZ FNMT-RCM", "FNMT-RCM",
        ("mozilla-nss", "ccadb"),
    ),
}

#: Intermediates (issued under the roots above) with the exact names the
#: paper's Table 5 footnotes cite.
PUBLIC_INTERMEDIATE_CATALOG: dict[str, tuple[str, str, str]] = {
    # label → (root label, intermediate CN, organization)
    "lets-encrypt-r3": ("lets-encrypt", "R3", "Let's Encrypt"),
    "digicert-geotrust": ("digicert", "GeoTrust TLS RSA CA G1", "DigiCert Inc"),
    "digicert-ev": (
        "digicert", "DigiCert SHA2 Extended Validation Server CA", "DigiCert Inc",
    ),
    "godaddy-g2": ("godaddy", "GoDaddy Secure Certificate Authority - G2", "GoDaddy.com, Inc."),
    "identrust-server": ("identrust", "TrustID Server CA O1", "IdenTrust"),
    "sectigo-dv": ("sectigo", "Sectigo RSA Domain Validation Secure Server CA", "Sectigo Limited"),
    "apple-public": ("apple", "Apple Public Server RSA CA 12 - G1", "Apple"),
    "apple-iphone-device": ("apple", "Apple iPhone Device CA", "Apple"),
    "microsoft-azure": ("microsoft", "Microsoft Azure TLS Issuing CA 01", "Microsoft"),
    "microsoft-azure-sphere": ("microsoft", "Microsoft Azure Sphere 4f2c...", "Microsoft"),
    "amazon-m01": ("amazon", "Amazon RSA 2048 M01", "Amazon"),
}

#: Dummy organizations (software/protocol defaults, §5.1.1).
DUMMY_ISSUER_ORGS = (
    "Internet Widgits Pty Ltd",  # OpenSSL default
    "Default Company Ltd",
    "Unspecified",
    "Acme Co",
    "Example Inc",
)


class CaUniverse:
    """Factory/cache for every CA the simulation needs."""

    def __init__(self, key_factory: KeyFactory, rng: random.Random) -> None:
        self.key_factory = key_factory
        self.rng = rng
        self.trust_stores = TrustStoreSet.with_standard_stores()
        self._public_roots: dict[str, CertificateAuthority] = {}
        self._public_intermediates: dict[str, CertificateAuthority] = {}
        self._private: dict[str, CertificateAuthority] = {}
        self._build_public()

    def _build_public(self) -> None:
        for label, (cn, org, store_names) in PUBLIC_CA_CATALOG.items():
            root = CertificateAuthority.create_root(
                Name.build(common_name=cn, organization=org),
                self.key_factory,
                rng=self.rng,
                not_before=_ROOT_BIRTH,
                lifetime_days=9125,
            )
            self._public_roots[label] = root
            for store_name in store_names:
                self.trust_stores.store(store_name).add(root.certificate)
        for label, (root_label, cn, org) in PUBLIC_INTERMEDIATE_CATALOG.items():
            root = self._public_roots[root_label]
            intermediate = root.create_intermediate(
                Name.build(common_name=cn, organization=org),
                now=_ROOT_BIRTH,
                lifetime_days=9125,
                validity_policy=ValidityPolicy.days(398),
            )
            self._public_intermediates[label] = intermediate
            # Intermediates of public programs are CCADB-listed.
            self.trust_stores.store("ccadb").add(intermediate.certificate)

    # Public CAs ---------------------------------------------------------------

    def public(self, label: str) -> CertificateAuthority:
        """A public issuing CA by catalog label (intermediate preferred)."""
        if label in self._public_intermediates:
            return self._public_intermediates[label]
        return self._public_roots[label]

    def random_public(self) -> CertificateAuthority:
        return self.rng.choice(list(self._public_intermediates.values()))

    # Private CAs --------------------------------------------------------------

    def private(
        self,
        organization: str | None,
        common_name: str | None = None,
        serial_policy: SerialPolicy | None = None,
        validity_policy: ValidityPolicy | None = None,
    ) -> CertificateAuthority:
        """A private CA, cached by (org, cn) identity.

        `organization=None` with `common_name=None` yields the
        missing-issuer CA: an issuer DN with no attributes at all, which
        is what 'Private - MissingIssuer' certificates carry.
        """
        cache_key = f"{organization!r}/{common_name!r}"
        if cache_key in self._private:
            return self._private[cache_key]
        if organization is None and common_name is None:
            name = Name.empty()
        else:
            name = Name.build(common_name=common_name, organization=organization)
        ca = CertificateAuthority.create_root(
            name,
            self.key_factory,
            rng=self.rng,
            not_before=_ROOT_BIRTH,
            lifetime_days=10950,
            serial_policy=serial_policy,
            validity_policy=validity_policy or ValidityPolicy.days_range(365, 1095),
        )
        self._private[cache_key] = ca
        return ca

    def missing_issuer(self) -> CertificateAuthority:
        return self.private(None, None)

    def education(self, index: int = 0) -> CertificateAuthority:
        names = (
            ("State University", "State University Device CA"),
            ("State University", "State University Health CA"),
            ("State University", "State University VPN CA"),
        )
        org, cn = names[index % len(names)]
        return self.private(org, cn)

    def dummy(self, organization: str) -> CertificateAuthority:
        if organization not in DUMMY_ISSUER_ORGS:
            raise ValueError(f"{organization!r} is not a known dummy issuer")
        return self.private(organization, organization)

    def globus(self) -> CertificateAuthority:
        """'Globus Online' with issuer CN 'FXP DCAU Cert', serial 00,
        14-day certificates (§5.1.2)."""
        return self.private(
            "Globus Online",
            "FXP DCAU Cert",
            serial_policy=SerialPolicy.fixed(0x00),
            validity_policy=ValidityPolicy.days(14),
        )

    def guardicore_client(self) -> CertificateAuthority:
        return self.private(
            "GuardiCore",
            "GuardiCore Client CA",
            serial_policy=SerialPolicy.fixed(0x01),
            validity_policy=ValidityPolicy.days(900),
        )

    def guardicore_server(self) -> CertificateAuthority:
        return self.private(
            "GuardiCore",
            "GuardiCore Server CA",
            serial_policy=SerialPolicy.fixed(0x03E8),
            validity_policy=ValidityPolicy.days(900),
        )

    def viptela(self) -> CertificateAuthority:
        return self.private(
            "ViptelaClient",
            "ViptelaClient",
            serial_policy=SerialPolicy.fixed(0x024680),
            validity_policy=ValidityPolicy.days(15),
        )

    def corporation(self, index: int) -> CertificateAuthority:
        corps = (
            "Honeywell International Inc", "IDrive Inc Certificate Authority",
            "Crestron Electronics Inc", "Outset Medical", "Splunk",
            "Cisco Systems Inc", "Lenovo Group Ltd", "Samsung Electronics Co",
            "AT&T Services Inc", "Red Hat Inc", "Siemens AG", "Bosch GmbH",
        )
        org = corps[index % len(corps)]
        return self.private(org, f"{org} Issuing CA")

    def government(self, index: int = 0) -> CertificateAuthority:
        orgs = (
            "Commonwealth Department of Revenue",
            "Federal Network Agency",
            "City Government IT Services",
        )
        org = orgs[index % len(orgs)]
        return self.private(org, f"{org} CA")

    def webhosting(self, index: int = 0) -> CertificateAuthority:
        orgs = ("BlueHost Web Hosting", "Hostway Web Hosting", "DreamHost Hosting")
        org = orgs[index % len(orgs)]
        return self.private(org, f"{org} CA")

    def other(self, name: str) -> CertificateAuthority:
        """A private CA whose organization is an unclassifiable string
        ('rcgen', 'SDS', 'media-server', 'IceLink', ...)."""
        return self.private(name, name)

    # Interception ---------------------------------------------------------------

    def interception_proxies(self, count: int) -> list[InterceptionProxy]:
        """`count` distinct TLS-inspection middleboxes, each with its own
        private CA (never added to any trust store)."""
        vendors = (
            "NetFilter Security", "BlueCoat Inspection", "Zscaler Inc",
            "Fortinet FortiGate", "Palo Alto Networks", "Sophos Web Appliance",
            "WatchGuard HTTPS Proxy", "Cisco Umbrella", "Barracuda WSG",
            "McAfee Web Gateway", "Kaspersky Endpoint", "Avast Web Shield",
        )
        proxies = []
        for index in range(count):
            vendor = vendors[index % len(vendors)]
            suffix = "" if index < len(vendors) else f" {index // len(vendors) + 1}"
            ca = self.private(
                vendor + suffix, f"{vendor}{suffix} Interception CA",
                validity_policy=ValidityPolicy.days(365),
            )
            proxies.append(InterceptionProxy(ca=ca))
        return proxies

    def is_interception_issuer(self, issuer_org: str | None) -> bool:
        if not issuer_org:
            return False
        return any(
            issuer_org.startswith(vendor)
            for vendor in (
                "NetFilter", "BlueCoat", "Zscaler", "Fortinet", "Palo Alto",
                "Sophos", "WatchGuard", "Cisco Umbrella", "Barracuda",
                "McAfee", "Kaspersky", "Avast",
            )
        )
