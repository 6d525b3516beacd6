"""Per-value memos and the re-join-free interception filter change no
answer.

- The memoized helpers equal their uncached computation: ``__wrapped__``
  for the LRU-cached functions, and the plain loop over
  ``cosine_similarity`` (written out below) for ``CompanyMatcher``.
- ``CnSanClassifier.classify`` equals the rule chain it memoizes,
  written out below in its original order as the oracle.
- ``MtlsDataset.without_fingerprints`` equals rebuilding the dataset
  from the kept rows and re-joining them, kept below as the oracle.
- A campaign's information-type tables run the NER classifier at most
  once per distinct text.
"""

import datetime as dt
import ipaddress
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cnsan import (
    _EMAIL_RE,
    _IPV4_RE,
    _MAC_RE,
    _SIP_RE,
    _USER_ACCOUNT_RE,
    CnSanClassifier,
    default_classifier,
)
from repro.core.dataset import MtlsDataset
from repro.core.dummy import _is_dummy_org
from repro.core.issuers import DUMMY_ORGANIZATIONS
from repro.core.parallel import analyze_directory
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.text.domains import PUBLIC_SUFFIXES, extract_domain, is_domain_like
from repro.text.ner import KNOWN_COMPANIES, EntityLabel, NerClassifier
from repro.text.similarity import CompanyMatcher, cosine_similarity, ngram_vector
from repro.zeek import SslRecord, X509Record
from repro.zeek.files import write_rotated_logs

UTC = dt.timezone.utc
TS = dt.datetime(2023, 1, 1, tzinfo=UTC)

# ---------------------------------------------------------------------------
# Memoized string helpers
# ---------------------------------------------------------------------------

_labels = st.text(alphabet="abcxyz019-_", min_size=0, max_size=8)
_hosts = st.one_of(
    st.text(max_size=30),
    st.lists(_labels, min_size=1, max_size=5).map(".".join),
    st.tuples(
        st.lists(_labels, min_size=0, max_size=3), st.sampled_from(sorted(PUBLIC_SUFFIXES))
    ).map(lambda parts: ".".join([*parts[0], parts[1]])),
    st.sampled_from([
        "", ".", "..", " ", "com", "co.uk", "a.co.uk", "VPN.Its.University.EDU.",
        " host.example.com ", "*.example.com", "FXP DCAU Cert", "x..y.com",
        "localhost", "10.16.0.1", "ab1cd",
    ]),
)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the memo must re-raise what the function raises
        return (type(exc).__name__, str(exc))


@settings(max_examples=300, deadline=None)
@given(host=_hosts)
def test_extract_domain_matches_uncached(host):
    expected = _outcome(extract_domain.__wrapped__, host)
    # Twice: the second call may be answered by the cache.
    assert _outcome(extract_domain, host) == expected
    assert _outcome(extract_domain, host) == expected


_orgs = st.one_of(
    st.none(),
    st.text(max_size=30),
    st.sampled_from(sorted(DUMMY_ORGANIZATIONS)).flatmap(
        lambda org: st.sampled_from([org, org.upper(), f"{org}, Inc.", f" {org} ltd."])
    ),
    st.sampled_from(["", " ", "Internet Widgits Pty Ltd", "Example University", "-"]),
)


@settings(max_examples=300, deadline=None)
@given(org=_orgs)
def test_is_dummy_org_matches_uncached(org):
    expected = _outcome(_is_dummy_org.__wrapped__, org)
    assert _outcome(_is_dummy_org, org) == expected
    assert _outcome(_is_dummy_org, org) == expected


def _reference_match(companies, text):
    """CompanyMatcher.match as the loop over ``cosine_similarity``."""
    names = list(dict.fromkeys(companies))
    exact = {name.lower(): name for name in names}
    normalized = " ".join(text.lower().split())
    if normalized in exact:
        return exact[normalized], 1.0
    if not names:
        return None
    query = ngram_vector(text)
    best_name, best_score = "", -1.0
    for name in names:
        score = cosine_similarity(query, ngram_vector(name))
        if score > best_score:
            best_name, best_score = name, score
    return best_name, best_score


_texts = st.one_of(
    st.text(max_size=40),
    st.sampled_from(KNOWN_COMPANIES).flatmap(
        lambda name: st.sampled_from([name, name.upper(), name + " Corp", name[:-1], " " + name])
    ),
    st.sampled_from(["", " ", "a", "ab", "Microsoft  Azure", "Amazon Web Service"]),
)


@settings(max_examples=300, deadline=None)
@given(text=_texts)
def test_company_match_equals_cosine_loop(text):
    matcher = CompanyMatcher(KNOWN_COMPANIES)
    # Exact float equality: the scores must be bit-identical.
    assert matcher.match(text) == _reference_match(KNOWN_COMPANIES, text)


@settings(max_examples=200, deadline=None)
@given(
    companies=st.lists(st.text(max_size=12), max_size=6),
    text=st.text(max_size=16),
)
def test_company_match_equals_cosine_loop_on_any_lexicon(companies, text):
    assert CompanyMatcher(companies).match(text) == _reference_match(companies, text)


# ---------------------------------------------------------------------------
# CN/SAN classifier memo
# ---------------------------------------------------------------------------


def _reference_classify(classifier, value, issuer_org, issuer_cn):
    """The §6.1.1 rule chain in its original order, unmemoized."""
    value = value.strip()
    if not value:
        return "Unidentified"
    lowered = value.lower()
    if lowered in ("localhost", "localhost.localdomain") or lowered.startswith("localhost."):
        return "Localhost"
    if _SIP_RE.match(value):
        return "SIP"
    if _MAC_RE.match(value):
        return "MAC"
    try:
        ipaddress.ip_address(value)
        is_ip = True
    except ValueError:
        is_ip = False
    if _IPV4_RE.match(value) or is_ip:
        return "IP"
    if _EMAIL_RE.match(value):
        return "Email"
    if _USER_ACCOUNT_RE.match(value) and any(
        text and any(m in text.lower() for m in classifier.campus_issuer_markers)
        for text in (issuer_org, issuer_cn)
    ):
        return "UserAccount"
    if is_domain_like(value):
        return "Domain"
    entity = NerClassifier().classify(value)
    if entity.label is EntityLabel.PERSON:
        return "PersonalName"
    if entity.label in (EntityLabel.ORG, EntityLabel.PRODUCT):
        return "OrgProduct"
    return "Unidentified"


_values = st.one_of(
    st.text(max_size=30),
    st.from_regex(r"\A[a-z]{2,3}[0-9][a-z]{2,3}\Z"),
    st.sampled_from([
        "", " ", "localhost", "LocalHost.example", "sip:alice@example.com",
        "00:1A:2b:3c:4d:5e", "10.16.0.1", "::1", "alice@example.com",
        "abc1de", " abc1de ", "host.university.edu", "*.example.com",
        "John Smith", "Smith, John", "Microsoft Azure", "WebRTC", "Acme Inc",
        "a8f3c2d1", "3f2504e0-4f89-11d3-9a0c-0305e82c3301",
    ]),
)
_issuers = st.one_of(
    st.none(), st.sampled_from(["Example University", "UNIVERSITY CA", "Acme Corp", ""])
)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.tuples(_values, _issuers, _issuers), max_size=6))
def test_classifier_memo_matches_rule_chain(values):
    for classifier in (CnSanClassifier(), CnSanClassifier(campus_issuer_markers=("acme",))):
        for value, org, cn in values + values:
            assert classifier.classify(value, org, cn) == _reference_classify(
                classifier, value, org, cn
            )


def test_caller_built_classifier_keeps_its_own_markers():
    campus = CnSanClassifier(campus_issuer_markers=("acme",))
    assert campus.classify("abc1de", "Acme Corp") == "UserAccount"
    assert default_classifier().classify("abc1de", "Acme Corp") != "UserAccount"
    assert default_classifier().classify("abc1de", "Example University") == "UserAccount"


# ---------------------------------------------------------------------------
# The interception filter without the re-join
# ---------------------------------------------------------------------------


def _rebuild_and_rejoin(dataset, x509, excluded):
    """The filter as it was: rebuild from the kept rows and re-join."""
    keep_x509 = [
        r for r in {r.fuid: r for r in x509}.values() if r.fingerprint not in excluded
    ]
    excluded_fuids = dataset.fuids_of(excluded)
    keep_ssl = []
    for conn in dataset.connections:
        fuids = set(conn.ssl.cert_chain_fuids) | set(conn.ssl.client_cert_chain_fuids)
        if fuids & excluded_fuids:
            continue
        keep_ssl.append(conn.ssl)
    return MtlsDataset(keep_ssl, keep_x509, ingest_report=dataset.ingest_report)


_FUIDS = [f"F{i}" for i in range(10)]
_FINGERPRINTS = [f"fp{i}" for i in range(5)]


def _x509(fuid, fingerprint):
    return X509Record(
        ts=TS, fuid=fuid, fingerprint=fingerprint, version=3, serial="01",
        subject=f"CN={fingerprint}", issuer="CN=Issuer,O=Org",
        not_valid_before=dt.datetime(2022, 1, 1, tzinfo=UTC),
        not_valid_after=dt.datetime(2024, 1, 1, tzinfo=UTC),
        key_alg="rsaEncryption", sig_alg="sha256WithRSAEncryption", key_length=2048,
    )


def _ssl(uid, server, client, established=True):
    return SslRecord(
        ts=TS, uid=uid, id_orig_h="10.48.0.9", id_orig_p=50000,
        id_resp_h="198.18.0.9", id_resp_p=443, version="TLSv12", cipher="x",
        server_name="svc.example.com", established=established,
        cert_chain_fuids=tuple(server), client_cert_chain_fuids=tuple(client),
    )


def _assert_filter_matches_oracle(ssl, x509, excluded):
    dataset = MtlsDataset(ssl, x509, ingest_report=object())
    got = dataset.without_fingerprints(excluded)
    want = _rebuild_and_rejoin(dataset, x509, excluded)
    assert [c.ssl for c in got.connections] == [c.ssl for c in want.connections]
    assert [(c.server_leaf, c.client_leaf) for c in got.connections] == [
        (c.server_leaf, c.client_leaf) for c in want.connections
    ]
    assert [c.is_mutual for c in got.connections] == [c.is_mutual for c in want.connections]
    assert got.dangling_fuid_refs == want.dangling_fuid_refs
    assert got.dropped_unestablished == want.dropped_unestablished
    assert got.ingest_report is want.ingest_report
    for fuid in _FUIDS + ["missing"]:
        assert got.x509_record(fuid) is want.x509_record(fuid)
    for fingerprints in ({fp} for fp in _FINGERPRINTS + ["other"]):
        assert got.fuids_of(fingerprints) == want.fuids_of(fingerprints)
    assert got.fuids_of(set(_FINGERPRINTS)) == want.fuids_of(set(_FINGERPRINTS))
    assert got.certificate_profiles() == want.certificate_profiles()
    assert list(got.certificate_profiles()) == list(want.certificate_profiles())
    return got


_chains = st.lists(st.sampled_from(_FUIDS), max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    x509=st.lists(
        st.tuples(st.sampled_from(_FUIDS[:8]), st.sampled_from(_FINGERPRINTS)), max_size=10
    ),
    ssl=st.lists(st.tuples(_chains, _chains, st.booleans()), max_size=12),
    excluded=st.sets(st.sampled_from(_FINGERPRINTS + ["unseen"])),
)
def test_without_fingerprints_equals_rebuild(x509, ssl, excluded):
    # F8 and F9 never get an x509 row: every reference to them dangles.
    records = [_x509(fuid, fp) for fuid, fp in x509]
    conns = [
        _ssl(f"C{i}", server, client, established)
        for i, (server, client, established) in enumerate(ssl)
    ]
    _assert_filter_matches_oracle(conns, records, excluded)


def test_without_fingerprints_edge_cases():
    records = [
        _x509("F0", "fp0"), _x509("F1", "fp1"), _x509("F2", "fp2"),
        _x509("F3", "fp3"), _x509("F4", "fp0"),
    ]
    conns = [
        _ssl("kept", ["F0", "F3"], ["F2"]),
        # Excluded through a non-leaf chain fuid only.
        _ssl("intermediate", ["F3", "F1"], []),
        # Dangling leaves on both sides, nothing excluded.
        _ssl("dangling", ["F9"], ["F8", "F1"]),
        _ssl("dangling-kept", ["F9"], ["F8"]),
        # Client-only chains, one excluded and one kept.
        _ssl("client-only-excluded", [], ["F1"]),
        _ssl("client-only-kept", [], ["F2"]),
        # Another fuid of an excluded fingerprint.
        _ssl("second-fuid", ["F4"], []),
        _ssl("unestablished", ["F0"], [], established=False),
    ]
    got = _assert_filter_matches_oracle(conns, records, {"fp1"})
    assert [c.ssl.uid for c in got.connections] == [
        "kept", "dangling-kept", "client-only-kept", "second-fuid",
    ]
    assert got.dangling_fuid_refs == 2
    got = _assert_filter_matches_oracle(conns, records, {"fp0", "fp3"})
    assert [c.ssl.uid for c in got.connections] == [
        "dangling", "dangling-kept", "client-only-excluded", "client-only-kept",
    ]
    _assert_filter_matches_oracle(conns, records, set())


# ---------------------------------------------------------------------------
# NER runs once per distinct text across the information-type tables
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    simulation = TrafficGenerator(
        ScenarioConfig(seed=31, months=3, connections_per_month=200)
    ).generate()
    directory = tmp_path_factory.mktemp("archive")
    write_rotated_logs(simulation.logs, directory)
    return analyze_directory(
        directory, bundle=simulation.trust_bundle, ct_log=simulation.ct_log, jobs=1
    )


def test_information_type_tables_run_ner_once_per_text(small_campaign, monkeypatch):
    calls: Counter = Counter()
    classify = NerClassifier.classify

    def counting(self, text):
        calls[text] += 1
        return classify(self, text)

    monkeypatch.setattr(NerClassifier, "classify", counting)
    default_classifier.cache_clear()  # start from an empty memo
    rendered = [
        small_campaign.table(name).render()
        for name in ("table8", "table9", "table13b", "table14b")
    ]
    assert calls, "the campaign never reached the NER step"
    assert max(calls.values()) == 1, calls.most_common(3)
    # Rendering again is answered from the memo.
    again = [
        small_campaign.table(name).render()
        for name in ("table8", "table9", "table13b", "table14b")
    ]
    assert again == rendered
    assert max(calls.values()) == 1
