"""Registrable-domain extraction (tldextract substitute).

Implements the same longest-matching-suffix semantics as the Public
Suffix List against an embedded subset covering the suffixes that appear
in the study's dataset (com/net/org/edu/gov/io/me/..., two-level
suffixes like co.uk and com.cn, and wildcard-free behaviour).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

#: Embedded Public Suffix List subset. Multi-label suffixes are listed
#: explicitly; matching picks the longest suffix.
PUBLIC_SUFFIXES: frozenset[str] = frozenset(
    {
        # Generic
        "com", "net", "org", "edu", "gov", "mil", "int", "info", "biz",
        "io", "me", "co", "ai", "app", "dev", "cloud", "online", "top",
        "xyz", "site", "tech", "store", "education",
        # Country codes seen in the tables
        "us", "uk", "cn", "de", "fr", "jp", "kr", "ca", "au", "in", "br",
        "ru", "nl", "se", "ch", "it", "es", "eu",
        # Two-level suffixes
        "co.uk", "org.uk", "ac.uk", "gov.uk",
        "com.cn", "net.cn", "org.cn", "edu.cn", "gov.cn",
        "com.au", "net.au", "org.au",
        "co.jp", "ne.jp", "ac.jp",
        "com.br", "co.kr", "co.in",
    }
)

_LABEL_RE = re.compile(r"^[a-z0-9_]([a-z0-9_-]{0,61}[a-z0-9_])?$", re.IGNORECASE)


@dataclass(frozen=True)
class DomainParts:
    """Decomposition of a host name.

    For ``vpn.its.university.edu``: subdomain ``vpn.its``, sld
    ``university``, suffix ``edu``, registrable ``university.edu``.
    """

    subdomain: str
    sld: str
    suffix: str

    @property
    def registrable(self) -> str:
        """The registrable domain (a.k.a. eTLD+1), or '' if none."""
        if not self.sld or not self.suffix:
            return ""
        return f"{self.sld}.{self.suffix}"

    @property
    def fqdn(self) -> str:
        parts = [p for p in (self.subdomain, self.sld, self.suffix) if p]
        return ".".join(parts)


@functools.lru_cache(maxsize=65536)
def extract_domain(host: str) -> DomainParts:
    """Split a host into (subdomain, sld, suffix) with PSL semantics.

    A host that is *only* a public suffix yields an empty sld (same as
    tldextract). A host with no recognized suffix yields suffix '' and
    the last label as sld — degraded but stable behaviour for the
    free-text values common in certificate SANs.

    Capture logs repeat SNIs heavily, so answers sit behind a bounded
    LRU cache; ``DomainParts`` is frozen, so callers may share one.
    """
    host = host.strip().strip(".").lower()
    if not host:
        return DomainParts("", "", "")
    labels = host.split(".")
    # Find the longest matching public suffix.
    suffix_len = 0
    for take in range(1, len(labels) + 1):
        candidate = ".".join(labels[-take:])
        if candidate in PUBLIC_SUFFIXES:
            suffix_len = take
    if suffix_len == 0:
        if len(labels) == 1:
            return DomainParts("", labels[0], "")
        return DomainParts(".".join(labels[:-1]), labels[-1], "")
    if suffix_len == len(labels):
        return DomainParts("", "", ".".join(labels))
    suffix = ".".join(labels[-suffix_len:])
    sld = labels[-suffix_len - 1]
    subdomain = ".".join(labels[: -suffix_len - 1])
    return DomainParts(subdomain, sld, suffix)


def sld_of(host: str) -> str:
    """The registrable domain of a host ('' when not derivable).

    This is what the paper calls the SLD when grouping inbound servers
    (Table 3) and Table 5 rows: e.g. 'idrive.com', 'psych.org'.
    """
    return extract_domain(host).registrable


def tld_of(host: str) -> str:
    """The public suffix of a host ('' when not derivable) — the paper's
    TLD grouping for outbound traffic (Figure 2, Table 4)."""
    return extract_domain(host).suffix


def is_domain_like(text: str) -> bool:
    """Heuristic: is this string plausibly a (possibly wildcard) domain?

    Requires at least two labels, all syntactically valid, and a
    recognized public suffix — free text like 'John Smith's laptop' or
    'WebRTC' must NOT pass, since the CN/SAN classifier relies on this
    to separate Domain from other information types.
    """
    text = text.strip().rstrip(".").lower()
    if not text or " " in text or len(text) > 253:
        return False
    if text.startswith("*."):
        text = text[2:]
    labels = text.split(".")
    if len(labels) < 2:
        return False
    if not all(_LABEL_RE.match(label) for label in labels):
        return False
    parts = extract_domain(text)
    return bool(parts.suffix) and bool(parts.sld)
