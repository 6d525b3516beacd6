"""§6: what is inside CN and SAN? (Tables 7, 8, 9, 13, 14)

Implements the information-type classifier of §6.1.1 — regex types
(domain, IP, MAC, SIP, email, campus user account, localhost), the NER
substitute for personal names and org/product strings, and the random-
string sub-classification of 'unidentified' values — then the counting
tables over mutual, shared, and non-mutual certificate populations.
"""

from __future__ import annotations

import functools
import ipaddress
import re
from collections import Counter
from dataclasses import dataclass, field

from repro.core import protocol
from repro.core.dataset import CertProfile
from repro.core.enrich import EnrichedDataset
from repro.core.report import Table, percentage
from repro.text.domains import is_domain_like
from repro.text.ner import EntityLabel, NerClassifier
from repro.text.randomness import looks_random, random_string_shape
from repro.trust import TrustBundle
from repro.zeek import X509Record

#: The information types of §6.1.1, in classification priority order.
INFO_TYPES = (
    "Domain", "IP", "MAC", "SIP", "Email", "UserAccount",
    "PersonalName", "OrgProduct", "Localhost", "Unidentified",
)

_MAC_RE = re.compile(r"^([0-9A-Fa-f]{2}[:-]){5}[0-9A-Fa-f]{2}$")
_SIP_RE = re.compile(r"^sips?:", re.IGNORECASE)
_EMAIL_RE = re.compile(r"^[^@\s]+@[^@\s]+\.[^@\s]+$")
_USER_ACCOUNT_RE = re.compile(r"^[a-z]{2,3}\d[a-z]{2,3}$")
_IPV4_RE = re.compile(r"^\d{1,3}(\.\d{1,3}){3}$")


#: Distinct values one classifier remembers (a 23-month campus campaign
#: classifies under a thousand).
_MEMO_SIZE = 65536


class CnSanClassifier:
    """Classifies one CN or SAN value into an information type.

    `campus_issuer_markers` gates the UserAccount type: the paper only
    counts university-format IDs when the issuer is a campus-managed CA.

    Every other rule depends on the value alone, so each classifier
    remembers the type of each distinct value (a bounded LRU memo) and
    runs the regexes and the NER classifier once per value.
    """

    def __init__(
        self,
        ner: NerClassifier | None = None,
        campus_issuer_markers: tuple[str, ...] = ("university",),
    ) -> None:
        self.ner = ner or NerClassifier()
        self.campus_issuer_markers = tuple(m.lower() for m in campus_issuer_markers)
        self._value_type = functools.lru_cache(maxsize=_MEMO_SIZE)(
            self._derive_value_type
        )

    def _issuer_is_campus(self, issuer_org: str | None, issuer_cn: str | None) -> bool:
        for text in (issuer_org, issuer_cn):
            if text and any(marker in text.lower() for marker in self.campus_issuer_markers):
                return True
        return False

    def classify(
        self,
        value: str,
        issuer_org: str | None = None,
        issuer_cn: str | None = None,
    ) -> str:
        value = value.strip()
        # No rule ahead of UserAccount matches an account-shaped value,
        # so testing it first leaves every answer unchanged.
        if _USER_ACCOUNT_RE.match(value) and self._issuer_is_campus(issuer_org, issuer_cn):
            return "UserAccount"
        return self._value_type(value)

    def _derive_value_type(self, value: str) -> str:
        if not value:
            return "Unidentified"
        lowered = value.lower()
        if lowered in ("localhost", "localhost.localdomain") or lowered.startswith(
            "localhost."
        ):
            return "Localhost"
        if _SIP_RE.match(value):
            return "SIP"
        if _MAC_RE.match(value):
            return "MAC"
        if _IPV4_RE.match(value) or _maybe_ip(value):
            return "IP"
        if _EMAIL_RE.match(value):
            return "Email"
        if is_domain_like(value):
            return "Domain"
        entity = self.ner.classify(value)
        if entity.label is EntityLabel.PERSON:
            return "PersonalName"
        if entity.label in (EntityLabel.ORG, EntityLabel.PRODUCT):
            return "OrgProduct"
        return "Unidentified"


@functools.lru_cache(maxsize=1)
def default_classifier() -> CnSanClassifier:
    """The classifier shared by every table that classifies with the
    default markers (8, 9, 13b and 14b), so their memo is shared too."""
    return CnSanClassifier()


def _maybe_ip(value: str) -> bool:
    try:
        ipaddress.ip_address(value)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Population selection
# ---------------------------------------------------------------------------


def _group_of(bundle: TrustBundle, profile: CertProfile) -> tuple[str, str]:
    role = "Server" if profile.primary_role == "server" else "Client"
    kind = "Public" if bundle.is_public(profile.record) else "Private"
    return role, kind


def _select_mutual(profiles: dict[str, CertProfile]) -> list[CertProfile]:
    return [
        p for p in profiles.values() if p.used_in_mutual and not p.shared_roles
    ]


def _select_shared(profiles: dict[str, CertProfile]) -> list[CertProfile]:
    return [p for p in profiles.values() if p.used_in_mutual and p.shared_roles]


def _select_non_mutual_server(profiles: dict[str, CertProfile]) -> list[CertProfile]:
    return [
        p for p in profiles.values() if p.used_as_server and not p.used_in_mutual
    ]


def _select_used_in_mutual(profiles: dict[str, CertProfile]) -> list[CertProfile]:
    return [p for p in profiles.values() if p.used_in_mutual]


def mutual_population(enriched: EnrichedDataset) -> list[CertProfile]:
    """Certificates used in mutual TLS, excluding shared-role certs
    (those get Table 13)."""
    return _select_mutual(enriched.profiles)


def shared_population(enriched: EnrichedDataset) -> list[CertProfile]:
    """Certificates presented by both servers and clients (§6.3.5)."""
    return _select_shared(enriched.profiles)


def non_mutual_server_population(enriched: EnrichedDataset) -> list[CertProfile]:
    """Server certificates never seen in a mutual connection (§6.3.6)."""
    return _select_non_mutual_server(enriched.profiles)


# ---------------------------------------------------------------------------
# Table 7 (and 13a/14a): CN/SAN utilization
# ---------------------------------------------------------------------------


@dataclass
class UtilizationRow:
    group: str
    total: int
    non_empty_cn: int
    non_empty_san: int


def utilization_table(
    enriched: EnrichedDataset,
    population: list[CertProfile] | None = None,
    split_roles: bool = True,
) -> list[UtilizationRow]:
    """Counts of certificates with non-empty CN / SAN DNS values."""
    population = mutual_population(enriched) if population is None else population
    return _count_utilization(population, enriched.bundle, split_roles)


def _count_utilization(
    population: list[CertProfile], bundle: TrustBundle, split_roles: bool
) -> list[UtilizationRow]:
    counts: dict[str, list[int]] = {}

    def bump(group: str, has_cn: bool, has_san: bool) -> None:
        row = counts.setdefault(group, [0, 0, 0])
        row[0] += 1
        if has_cn:
            row[1] += 1
        if has_san:
            row[2] += 1

    for profile in population:
        role, kind = _group_of(bundle, profile)
        has_cn = bool(profile.record.subject_cn)
        has_san = bool(profile.record.san_dns)
        if split_roles:
            bump(f"{role} certs.", has_cn, has_san)
            bump(f"{role} certs. / {kind} CA", has_cn, has_san)
        else:
            bump("Certificates", has_cn, has_san)
            bump(f"Certificates / {kind} CA", has_cn, has_san)
    return [
        UtilizationRow(group=group, total=row[0], non_empty_cn=row[1], non_empty_san=row[2])
        for group, row in sorted(counts.items())
    ]


def render_utilization(rows: list[UtilizationRow], title: str) -> Table:
    table = Table(title, ["Group", "Total", "CN non-empty", "CN %", "SAN non-empty", "SAN %"])
    for row in rows:
        table.add_row(
            row.group, row.total,
            row.non_empty_cn, percentage(row.non_empty_cn, row.total),
            row.non_empty_san, percentage(row.non_empty_san, row.total),
        )
    return table


# ---------------------------------------------------------------------------
# Table 8 (and 13b/14b): information types
# ---------------------------------------------------------------------------


@dataclass
class InfoTypeMatrix:
    """type counts per (group, field) — the cells of Table 8.

    For SAN, a certificate is counted once per distinct type present
    among its entries (so column percentages can exceed 100%)."""

    counts: dict[tuple[str, str], Counter] = field(default_factory=dict)
    group_totals: dict[tuple[str, str], int] = field(default_factory=dict)

    def cell(self, group: str, fieldname: str, info_type: str) -> int:
        return self.counts.get((group, fieldname), Counter())[info_type]

    def total(self, group: str, fieldname: str) -> int:
        return self.group_totals.get((group, fieldname), 0)


def information_types(
    enriched: EnrichedDataset,
    population: list[CertProfile] | None = None,
    classifier: CnSanClassifier | None = None,
    split_roles: bool = True,
) -> InfoTypeMatrix:
    """Classify CN and SAN contents for the population (Table 8)."""
    population = mutual_population(enriched) if population is None else population
    return _count_information_types(
        population, enriched.bundle, classifier, split_roles
    )


def _count_information_types(
    population: list[CertProfile],
    bundle: TrustBundle,
    classifier: CnSanClassifier | None,
    split_roles: bool,
) -> InfoTypeMatrix:
    classifier = classifier or default_classifier()
    matrix = InfoTypeMatrix()

    def bump(group: str, fieldname: str, info_type: str) -> None:
        key = (group, fieldname)
        matrix.counts.setdefault(key, Counter())[info_type] += 1

    def bump_total(group: str, fieldname: str) -> None:
        key = (group, fieldname)
        matrix.group_totals[key] = matrix.group_totals.get(key, 0) + 1

    for profile in population:
        record = profile.record
        role, kind = _group_of(bundle, profile)
        group = f"{role}/{kind}" if split_roles else kind
        cn = record.subject_cn
        if cn:
            bump_total(group, "CN")
            bump(group, "CN", classifier.classify(cn, record.issuer_org, record.issuer_cn))
        if record.san_dns:
            bump_total(group, "SAN")
            types_present = {
                classifier.classify(value, record.issuer_org, record.issuer_cn)
                for value in record.san_dns
            }
            for info_type in types_present:
                bump(group, "SAN", info_type)
    return matrix


def render_information_types(matrix: InfoTypeMatrix, title: str) -> Table:
    groups = sorted({group for group, _field in matrix.counts})
    headers = ["Information type"]
    for group in groups:
        headers.extend([f"{group} CN", f"{group} SAN"])
    table = Table(title, headers)
    for info_type in INFO_TYPES:
        cells: list[object] = [info_type]
        for group in groups:
            for fieldname in ("CN", "SAN"):
                count = matrix.cell(group, fieldname, info_type)
                total = matrix.total(group, fieldname)
                cells.append(f"{count} ({percentage(count, total)}%)" if total else "-")
        table.add_row(*cells)
    return table


# ---------------------------------------------------------------------------
# §6.1.2: usage of the explicit SAN types (IP / email / URI vs DNS)
# ---------------------------------------------------------------------------


@dataclass
class SanTypeUsage:
    """How often each explicit SAN type is populated, and whether its
    entries match the declared type (§6.1.2: 99% empty; correct when
    used — unlike SAN DNS, which carries free text)."""

    population: int = 0
    with_dns: int = 0
    with_ip: int = 0
    with_email: int = 0
    with_uri: int = 0
    ip_entries: int = 0
    ip_entries_valid: int = 0
    email_entries: int = 0
    email_entries_valid: int = 0
    dns_entries: int = 0
    dns_entries_domainlike: int = 0


def san_type_usage(
    enriched: EnrichedDataset, population: list[CertProfile] | None = None
) -> SanTypeUsage:
    """Measure explicit-SAN-type utilization and type conformance."""
    population = (
        _select_used_in_mutual(enriched.profiles)
        if population is None else population
    )
    return _count_san_type_usage(population)


def _count_san_type_usage(population: list[CertProfile]) -> SanTypeUsage:
    usage = SanTypeUsage(population=len(population))
    for profile in population:
        record = profile.record
        if record.san_dns:
            usage.with_dns += 1
            usage.dns_entries += len(record.san_dns)
            usage.dns_entries_domainlike += sum(
                1 for value in record.san_dns if is_domain_like(value)
            )
        if record.san_ip:
            usage.with_ip += 1
            usage.ip_entries += len(record.san_ip)
            usage.ip_entries_valid += sum(
                1 for value in record.san_ip if _maybe_ip(value)
            )
        if record.san_email:
            usage.with_email += 1
            usage.email_entries += len(record.san_email)
            usage.email_entries_valid += sum(
                1 for value in record.san_email if _EMAIL_RE.match(value)
            )
        if record.san_uri:
            usage.with_uri += 1
    return usage


def render_san_type_usage(usage: SanTypeUsage) -> Table:
    table = Table(
        "§6.1.2: explicit SAN type utilization and conformance",
        ["SAN type", "Certs using it", "% of population",
         "Entries", "Type-conformant entries"],
    )
    table.add_row("DNS", usage.with_dns, percentage(usage.with_dns, usage.population),
                  usage.dns_entries, usage.dns_entries_domainlike)
    table.add_row("IP", usage.with_ip, percentage(usage.with_ip, usage.population),
                  usage.ip_entries, usage.ip_entries_valid)
    table.add_row("Email", usage.with_email,
                  percentage(usage.with_email, usage.population),
                  usage.email_entries, usage.email_entries_valid)
    table.add_row("URI", usage.with_uri, percentage(usage.with_uri, usage.population),
                  "-", "-")
    table.add_note("paper: 99% of IP/URI/email SAN types are empty; when "
                   "used they match their type — SAN DNS does not")
    return table


# ---------------------------------------------------------------------------
# Table 9: unidentified sub-classification
# ---------------------------------------------------------------------------


@dataclass
class UnidentifiedBreakdown:
    group: str
    fieldname: str
    total: int = 0
    non_random: int = 0
    random_by_issuer: int = 0
    random_len8: int = 0
    random_len32: int = 0
    random_len36: int = 0
    random_other: int = 0


def unidentified_breakdown(
    enriched: EnrichedDataset,
    population: list[CertProfile] | None = None,
    classifier: CnSanClassifier | None = None,
) -> list[UnidentifiedBreakdown]:
    """Table 9: split Unidentified CN/SAN values into non-random strings
    and random strings keyed by issuer recognizability or length."""
    population = mutual_population(enriched) if population is None else population
    return _count_unidentified(population, enriched.bundle, classifier)


def _count_unidentified(
    population: list[CertProfile],
    bundle: TrustBundle,
    classifier: CnSanClassifier | None = None,
) -> list[UnidentifiedBreakdown]:
    classifier = classifier or default_classifier()
    rows: dict[tuple[str, str], UnidentifiedBreakdown] = {}

    def bucket(group: str, fieldname: str) -> UnidentifiedBreakdown:
        key = (group, fieldname)
        if key not in rows:
            rows[key] = UnidentifiedBreakdown(group=group, fieldname=fieldname)
        return rows[key]

    def account(group: str, fieldname: str, value: str, record: X509Record) -> None:
        row = bucket(group, fieldname)
        row.total += 1
        if not looks_random(value):
            row.non_random += 1
            return
        issuer_text = f"{record.issuer_cn or ''} {record.issuer_org or ''}".strip()
        if issuer_text and any(
            marker in issuer_text for marker in
            ("Azure Sphere", "Apple iPhone Device", "University", "AT&T", "Red Hat",
             "Samsung")
        ):
            row.random_by_issuer += 1
            return
        shape = random_string_shape(value)
        if shape == "len8":
            row.random_len8 += 1
        elif shape == "len32":
            row.random_len32 += 1
        elif shape in ("len36", "uuid"):
            row.random_len36 += 1
        else:
            row.random_other += 1

    for profile in population:
        record = profile.record
        role, kind = _group_of(bundle, profile)
        group = f"{role}/{kind}"
        cn = record.subject_cn
        if cn and classifier.classify(cn, record.issuer_org, record.issuer_cn) == "Unidentified":
            account(group, "CN", cn, record)
        for value in record.san_dns:
            if classifier.classify(value, record.issuer_org, record.issuer_cn) == "Unidentified":
                account(group, "SAN", value, record)
    return sorted(rows.values(), key=lambda r: (r.group, r.fieldname))


def render_unidentified_breakdown(rows: list[UnidentifiedBreakdown]) -> Table:
    table = Table(
        "Table 9: unidentified CN/SAN values — non-random vs random shapes",
        ["Group", "Field", "Total", "Non-random", "Random by issuer",
         "len=8", "len=32", "len=36/UUID", "Other"],
    )
    for row in rows:
        table.add_row(
            row.group, row.fieldname, row.total, row.non_random,
            row.random_by_issuer, row.random_len8, row.random_len32,
            row.random_len36, row.random_other,
        )
    return table


# ---------------------------------------------------------------------------
# Registry partials: Tables 7, 8, 9, 13a/b, 14a/b and the SAN-type usage
# ---------------------------------------------------------------------------


class Table7Partial(protocol.PopulationPartial):
    def population(self) -> list[CertProfile]:
        return _select_mutual(self.store.profiles)

    def result(self) -> list[UtilizationRow]:
        return _count_utilization(self.population(), self._bundle, split_roles=True)

    def finalize(self) -> Table:
        return render_utilization(
            self.result(), "Table 7: non-empty CN/SAN in mutual-TLS certificates"
        )


class Table8Partial(protocol.PopulationPartial):
    def population(self) -> list[CertProfile]:
        return _select_mutual(self.store.profiles)

    def result(self) -> InfoTypeMatrix:
        return _count_information_types(
            self.population(), self._bundle, None, split_roles=True
        )

    def finalize(self) -> Table:
        return render_information_types(
            self.result(), "Table 8: information types in CN and SAN (mutual TLS)"
        )


class Table9Partial(protocol.PopulationPartial):
    def population(self) -> list[CertProfile]:
        return _select_mutual(self.store.profiles)

    def result(self) -> list[UnidentifiedBreakdown]:
        return _count_unidentified(self.population(), self._bundle)

    def finalize(self) -> Table:
        return render_unidentified_breakdown(self.result())


class Table13aPartial(protocol.PopulationPartial):
    def population(self) -> list[CertProfile]:
        return _select_shared(self.store.profiles)

    def result(self) -> list[UtilizationRow]:
        return _count_utilization(self.population(), self._bundle, split_roles=False)

    def finalize(self) -> Table:
        return render_utilization(
            self.result(), "Table 13a: CN/SAN utilization in shared certificates"
        )


class Table13bPartial(protocol.PopulationPartial):
    def population(self) -> list[CertProfile]:
        return _select_shared(self.store.profiles)

    def result(self) -> InfoTypeMatrix:
        return _count_information_types(
            self.population(), self._bundle, None, split_roles=False
        )

    def finalize(self) -> Table:
        return render_information_types(
            self.result(), "Table 13b: information types in shared certificates"
        )


class Table14aPartial(protocol.PopulationPartial):
    def population(self) -> list[CertProfile]:
        return _select_non_mutual_server(self.store.profiles)

    def result(self) -> list[UtilizationRow]:
        return _count_utilization(self.population(), self._bundle, split_roles=False)

    def finalize(self) -> Table:
        return render_utilization(
            self.result(), "Table 14a: CN/SAN utilization, non-mutual server certs"
        )


class Table14bPartial(protocol.PopulationPartial):
    def population(self) -> list[CertProfile]:
        return _select_non_mutual_server(self.store.profiles)

    def result(self) -> InfoTypeMatrix:
        return _count_information_types(
            self.population(), self._bundle, None, split_roles=False
        )

    def finalize(self) -> Table:
        return render_information_types(
            self.result(), "Table 14b: information types, non-mutual server certs"
        )


class SanTypesPartial(protocol.PopulationPartial):
    def population(self) -> list[CertProfile]:
        return _select_used_in_mutual(self.store.profiles)

    def result(self) -> SanTypeUsage:
        return _count_san_type_usage(self.population())

    def finalize(self) -> Table:
        return render_san_type_usage(self.result())


protocol.register(protocol.Analysis(
    name="table7",
    title="Table 7: non-empty CN/SAN in mutual-TLS certificates",
    factory=Table7Partial,
))
protocol.register(protocol.Analysis(
    name="table8",
    title="Table 8: information types in CN and SAN (mutual TLS)",
    factory=Table8Partial,
))
protocol.register(protocol.Analysis(
    name="table9",
    title="Table 9: unidentified CN/SAN values — non-random vs random shapes",
    factory=Table9Partial,
))
protocol.register(protocol.Analysis(
    name="table13a",
    title="Table 13a: CN/SAN utilization in shared certificates",
    factory=Table13aPartial,
))
protocol.register(protocol.Analysis(
    name="table13b",
    title="Table 13b: information types in shared certificates",
    factory=Table13bPartial,
))
protocol.register(protocol.Analysis(
    name="table14a",
    title="Table 14a: CN/SAN utilization, non-mutual server certs",
    factory=Table14aPartial,
))
protocol.register(protocol.Analysis(
    name="table14b",
    title="Table 14b: information types, non-mutual server certs",
    factory=Table14bPartial,
))
protocol.register(protocol.Analysis(
    name="san-types",
    title="§6.1.2: explicit SAN type utilization and conformance",
    factory=SanTypesPartial,
))
