"""Satellite 2: the cert-fact cache never changes results.

Hypothesis drives random certificate streams through a deliberately
tiny cache (forced evictions) and checks every lookup against the
uncached derivation; CacheStats merging is associative and commutative;
snapshots round-trip with their LRU order intact.
"""

import datetime as dt
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enrich import derive_cert_facts, new_fact_cache
from repro.trust import TrustBundle
from repro.x509.facts import CacheStats, CertFactCache, CertFacts
from repro.zeek import X509Record

UTC = dt.timezone.utc

BUNDLE = TrustBundle(
    frozenset({"CN=Public Root,O=Public Trust"}),
    frozenset({"Public Trust"}),
)

#: A fixed population of distinct certificates: half public-CA issued,
#: some with dummy issuers, inverted validity, odd validity lengths —
#: every branch of the derivation is represented.
_ISSUERS = [
    "CN=Public Root,O=Public Trust",
    "CN=Campus CA,O=Example University",
    "CN=Dummy,O=Internet Widgits Pty Ltd",
    "CN=Gateway,O=Some-Company",
]


def _record(index: int) -> X509Record:
    issuer = _ISSUERS[index % len(_ISSUERS)]
    start = dt.datetime(2023, 1, 1, tzinfo=UTC)
    end = start + dt.timedelta(days=30 * (index + 1))
    if index % 5 == 4:
        start, end = end, start  # inverted validity
    return X509Record(
        ts=dt.datetime(2023, 1, 1, tzinfo=UTC),
        fuid=f"F{index}",
        fingerprint=f"fp{index:02d}" * 8,
        version=3,
        serial=f"{index:04X}",
        subject=f"CN=host{index}.example.edu,O=Example University",
        issuer=issuer,
        not_valid_before=start,
        not_valid_after=end,
        key_alg="rsaEncryption",
        sig_alg="sha256WithRSAEncryption",
        key_length=2048,
        san_dns=(f"host{index}.example.edu",),
        san_uri=(),
        san_email=(),
        san_ip=(),
    )


POPULATION = [_record(i) for i in range(10)]


@given(stream=st.lists(st.integers(0, len(POPULATION) - 1), max_size=80))
@settings(max_examples=120, deadline=None)
def test_cached_equals_uncached_under_eviction(stream):
    cache = CertFactCache(
        lambda record: derive_cert_facts(record, BUNDLE), max_entries=4
    )
    for index in stream:
        record = POPULATION[index]
        cached = cache.get(record.fingerprint, record)
        assert cached == derive_cert_facts(record, BUNDLE)
    assert len(cache) <= 4
    assert cache.stats.hits + cache.stats.misses == len(stream)
    assert cache.stats.evictions <= cache.stats.misses


@given(stream=st.lists(st.integers(0, len(POPULATION) - 1), max_size=60))
@settings(max_examples=60, deadline=None)
def test_snapshot_resume_equals_uninterrupted(stream):
    """Splitting a stream across state_dict/load_state changes nothing:
    same facts, same stats, same eviction order."""
    straight = CertFactCache(
        lambda record: derive_cert_facts(record, BUNDLE), max_entries=4
    )
    for index in stream:
        straight.get(POPULATION[index].fingerprint, POPULATION[index])

    half = len(stream) // 2
    first = CertFactCache(
        lambda record: derive_cert_facts(record, BUNDLE), max_entries=4
    )
    for index in stream[:half]:
        first.get(POPULATION[index].fingerprint, POPULATION[index])
    second = CertFactCache(
        lambda record: derive_cert_facts(record, BUNDLE), max_entries=4
    )
    second.load_state(first.state_dict())
    for index in stream[half:]:
        second.get(POPULATION[index].fingerprint, POPULATION[index])

    assert second.state_dict() == straight.state_dict()


_stats = st.builds(
    CacheStats,
    hits=st.integers(0, 1000),
    misses=st.integers(0, 1000),
    evictions=st.integers(0, 1000),
)


def _merged(*parts: CacheStats) -> CacheStats:
    total = CacheStats()
    for part in parts:
        total.merge(part)
    return total


@given(a=_stats, b=_stats, c=_stats)
@settings(max_examples=60, deadline=None)
def test_stats_merge_associative_commutative(a, b, c):
    assert (
        _merged(_merged(a, b), c).to_dict()
        == _merged(a, _merged(b, c)).to_dict()
    )
    assert _merged(a, b).to_dict() == _merged(b, a).to_dict()


def test_cert_facts_round_trips():
    facts = derive_cert_facts(POPULATION[0], BUNDLE)
    assert CertFacts.from_dict(facts.to_dict()) == facts
    assert pickle.loads(pickle.dumps(facts)) == facts


def test_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        CertFactCache(lambda record: record, max_entries=0)


def test_new_fact_cache_matches_direct_derivation():
    cache = new_fact_cache(BUNDLE, max_entries=2)
    for record in POPULATION:
        assert cache.get(record.fingerprint, record) == derive_cert_facts(
            record, BUNDLE
        )
    assert len(cache) == 2
    assert cache.stats.evictions == len(POPULATION) - 2


def _nine_field_entry(record: X509Record) -> dict:
    """A cache entry in the shape checkpoints held before ``CertFacts``
    kept only its two read fields: eight more derivations beside them."""
    return {
        "fingerprint": record.fingerprint,
        "is_public": BUNDLE.is_public(record),
        "issuer_org": record.issuer_org,
        "issuer_cn": record.issuer_cn,
        "subject_cn": record.subject_cn,
        "subject_org": record.subject_org,
        "dummy_issuer": record.issuer_org == "Internet Widgits Pty Ltd",
        "validity_days": record.validity_days,
        "inverted_validity": record.has_inverted_validity,
        "san_dns": list(record.san_dns),
    }


def test_nine_field_snapshot_restores_same_answers_and_stats():
    stream = [0, 1, 2, 0, 3, 4, 1, 5, 6, 2, 7, 0, 8, 9, 3, 1]
    half = len(stream) // 2
    straight = new_fact_cache(BUNDLE, max_entries=4)
    for index in stream:
        straight.get(POPULATION[index].fingerprint, POPULATION[index])

    first = new_fact_cache(BUNDLE, max_entries=4)
    for index in stream[:half]:
        first.get(POPULATION[index].fingerprint, POPULATION[index])
    old_shape = first.state_dict()
    by_fingerprint = {record.fingerprint: record for record in POPULATION}
    old_shape["entries"] = {
        fp: _nine_field_entry(by_fingerprint[fp]) for fp in old_shape["entries"]
    }

    resumed = new_fact_cache(BUNDLE)
    resumed.load_state(json.loads(json.dumps(old_shape)))
    assert resumed.stats.to_dict() == first.stats.to_dict()
    for index in stream[half:]:
        record = POPULATION[index]
        facts = resumed.get(record.fingerprint, record)
        assert facts.is_public == BUNDLE.is_public(record)
    assert resumed.state_dict() == straight.state_dict()
