"""Differential harness: the batch engine vs the reference path.

The batch ingest decoder (:mod:`repro.zeek.tsv`) and the per-certificate
fact cache (:mod:`repro.x509.facts`) promise *byte-identical* results to
the slow reference implementations. These helpers run the same input
through both decoder engines — ``off`` (reference per-field) and
``batch`` (vectorized whole-buffer) — and assert total equivalence:
records, ingest reports, and — under the strict policy — the raised
error's full context.
"""

from __future__ import annotations

import io

from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import (
    ErrorPolicy,
    IngestOptions,
    IngestReport,
    TsvFormatError,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)

POLICIES = ("strict", "skip", "quarantine")
KINDS = ("ssl", "x509")

_READERS = {"ssl": read_ssl_log, "x509": read_x509_log}


def corpus_texts(
    seed: int = 11, months: int = 3, connections_per_month: int = 120
) -> tuple[str, str]:
    """A seeded netsim campaign serialized to (ssl_text, x509_text)."""
    config = ScenarioConfig(
        seed=seed, months=months, connections_per_month=connections_per_month
    )
    logs = TrafficGenerator(config).generate().logs
    return ssl_log_to_string(logs.ssl), x509_log_to_string(logs.x509)


#: Decoder engines under differential test.
MODES = ("off", "batch")

#: Chunk size used for the batch leg: small enough that every corpus
#: spans many read buffers, so chunk-boundary record splitting is
#: exercised by default (output is chunk-size-invariant by contract).
BATCH_TEST_CHUNK = 4096


def read_one(
    kind: str,
    text: str,
    policy: ErrorPolicy | str,
    mode: str,
    chunk_chars: int | None = None,
) -> tuple[list, IngestReport, TsvFormatError | None]:
    """Run one (kind, policy, mode) combination to completion.

    ``mode`` is a decoder engine (``"off"``/``"batch"``). A strict-mode
    failure is captured, not propagated: the error object is part of the
    equivalence contract and must be compared too. The report returned
    on failure is the partial report at raise time.
    """
    report = IngestReport()
    reader = _READERS[kind]
    options = IngestOptions(
        on_error=policy,
        fast_path=mode,
        report=report,
        path=f"{kind}.log",
        batch_chunk_chars=(
            chunk_chars if chunk_chars is not None
            else (BATCH_TEST_CHUNK if mode == "batch" else None)
        ),
    )
    try:
        records = reader(io.StringIO(text), options)
    except TsvFormatError as exc:
        return [], report, exc
    return records, report, None


def _error_context(error: TsvFormatError | None):
    if error is None:
        return None
    return (
        type(error).__name__,
        str(error),
        error.reason,
        error.path,
        error.line_number,
        error.field,
    )


def assert_equivalent(kind: str, text: str, policy: ErrorPolicy | str) -> None:
    """The batch engine must agree with the reference (``off``) leg, the
    ground truth, on records, report, and error context."""
    slow_records, slow_report, slow_error = read_one(kind, text, policy, "off")
    records, report, error = read_one(kind, text, policy, "batch")
    assert _error_context(error) == _error_context(slow_error)
    assert len(records) == len(slow_records)
    assert records == slow_records
    # Hash/eq agreement is not enough for a *byte*-identical claim:
    # repr exposes every field verbatim.
    assert [repr(r) for r in records] == [repr(r) for r in slow_records]
    assert report.to_dict() == slow_report.to_dict()
