"""The golden-corpus regression tests.

One parametrized test per registered analysis: re-run the pipeline on
the fixed-seed corpus and compare against the checked-in expectation,
failing with a unified diff that names exactly what drifted. A
companion self-test proves the comparison has teeth by perturbing a
single value and asserting the suite would catch it.
"""

import copy
import json

import pytest

from tests import golden


@pytest.fixture(scope="module")
def study():
    return golden.build_study()


@pytest.fixture(scope="module")
def expected():
    return golden.load_expected()


def test_corpus_fingerprint_matches(study):
    """The simulator still generates byte-identical logs for the seed."""
    pinned = golden.load_corpus()
    actual = golden.corpus_fingerprint(study)
    assert actual == pinned, (
        "the golden corpus itself changed (simulator drift) — every "
        "expected table is suspect; inspect the generator change, then "
        "re-pin with `python -m tests.golden.update`:\n"
        + golden.diff_tables(pinned, actual)
    )


def test_expected_covers_every_analysis(expected):
    assert sorted(expected["tables"]) == sorted(golden.analysis_names())


@pytest.mark.parametrize("name", golden.analysis_names())
def test_analysis_matches_golden(study, expected, name):
    actual = golden.table_to_json(study.table(name))
    pinned = expected["tables"][name]
    assert actual == pinned, (
        f"analysis {name!r} drifted from the golden expectation "
        f"(re-pin with `python -m tests.golden.update` if intended):\n"
        + golden.diff_tables(pinned, actual)
    )


def test_suite_catches_one_line_perturbation(study, expected):
    """Drift detection has teeth: a single perturbed cell must fail."""
    name = golden.analysis_names()[0]
    actual = golden.table_to_json(study.table(name))
    perturbed = copy.deepcopy(actual)
    assert perturbed["rows"], f"golden table {name!r} has no rows to perturb"
    perturbed["rows"][0][-1] = perturbed["rows"][0][-1] + "1"
    assert perturbed != expected["tables"][name]
    diff = golden.diff_tables(expected["tables"][name], perturbed)
    assert diff, "perturbation produced an empty diff"
    assert "+" in diff and "-" in diff


@pytest.fixture(scope="module")
def fast_legs():
    """Two full pipeline runs over the corpus in the same session: the
    batch engine and the reference path, both re-ingesting through the
    TSV reader (``on_error="skip"``) so the decoders actually run."""
    batch = golden.build_study(fast_path="batch", on_error="skip")
    off = golden.build_study(fast_path="off", on_error="skip")
    return batch, off


@pytest.mark.parametrize("name", golden.analysis_names())
def test_fast_leg_matches_slow_leg(fast_legs, name):
    batch, off = fast_legs
    fast_table = golden.table_to_json(batch.table(name))
    slow_table = golden.table_to_json(off.table(name))
    assert fast_table == slow_table, (
        f"analysis {name!r} differs between --fast-path batch and off — the "
        "byte-identical contract is broken:\n"
        + golden.diff_tables(slow_table, fast_table)
    )


@pytest.mark.parametrize("name", golden.analysis_names())
def test_fast_leg_matches_golden(fast_legs, expected, name):
    """The fast path through the *reader* still lands on the pinned
    expectations (round-trip fidelity plus decoder equivalence)."""
    batch, _ = fast_legs
    actual = golden.table_to_json(batch.table(name))
    pinned = expected["tables"][name]
    assert actual == pinned, (
        f"fast-path analysis {name!r} drifted from the golden "
        "expectation:\n" + golden.diff_tables(pinned, actual)
    )


def test_fast_legs_agree_on_ingest_report(fast_legs):
    batch, off = fast_legs
    assert (
        batch.run().ingest_report.to_dict() == off.run().ingest_report.to_dict()
    )


def test_expected_document_is_normalized():
    """expected.json stays in the exact format update.py writes, so
    re-pinning produces minimal diffs."""
    raw = golden.EXPECTED_PATH.read_text(encoding="utf-8")
    document = json.loads(raw)
    assert document["format"] == golden.EXPECTED_FORMAT
    assert raw == json.dumps(document, indent=1, sort_keys=True) + "\n"
