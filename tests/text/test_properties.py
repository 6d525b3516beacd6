"""Property-based tests for the text substrate."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.cnsan import INFO_TYPES, CnSanClassifier
from repro.text.fuzzy import normalize_org, similar_org, token_jaccard
from repro.text.ner import NerClassifier
from repro.text.randomness import looks_random, shannon_entropy

text_values = st.text(max_size=60)
org_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=40
)

_classifier = CnSanClassifier()
_ner = NerClassifier()


@given(text_values)
def test_classifier_total_function(value):
    """Every string classifies to exactly one known type, no exceptions."""
    assert _classifier.classify(value) in INFO_TYPES


@given(text_values, st.one_of(st.none(), st.text(max_size=20)))
def test_classifier_deterministic(value, issuer_org):
    first = _classifier.classify(value, issuer_org)
    second = _classifier.classify(value, issuer_org)
    assert first == second


@given(text_values)
def test_ner_never_crashes(value):
    _ner.classify(value)


@given(org_values)
def test_normalize_org_idempotent(org):
    normalized = normalize_org(org)
    assert normalize_org(normalized) == normalized


@given(org_values)
def test_similar_org_reflexive(org):
    if normalize_org(org):
        assert similar_org(org, org)


@given(org_values, org_values)
def test_similar_org_symmetric(a, b):
    assert similar_org(a, b) == similar_org(b, a)


@given(org_values, org_values)
def test_token_jaccard_bounds(a, b):
    value = token_jaccard(a, b)
    assert 0.0 <= value <= 1.0


@given(text_values)
def test_entropy_nonnegative(value):
    assert shannon_entropy(value) >= 0.0


@given(text_values)
def test_looks_random_stable(value):
    assert looks_random(value) == looks_random(value)
