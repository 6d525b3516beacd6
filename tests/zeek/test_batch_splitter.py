"""Property tests for the batch engine's buffer splitter.

The vectorized reader consumes whole read buffers and re-derives record
boundaries itself — chunk-spanning rows, headers and ``#close`` footers
mid-buffer, CRLF endings, a missing final newline, escape sequences cut
in half by a chunk seam. These properties pin that splitting to the
line-at-a-time reference reader: for *any* chunk size the record
sequence, IngestReport, and strict-mode error context are identical.

Also home to the memo-bound property (ISSUE satellite 5): per-column
interning memos were sized for per-line filling, and the bulk decoder
must respect the same cap even when a single batch holds more distinct
values than the memo may ever store.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.zeek.tsv as tsv
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import (
    IngestOptions,
    IngestReport,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)
from tests.differential import KINDS, POLICIES, _error_context, read_one

_LOGS = TrafficGenerator(
    ScenarioConfig(seed=23, months=2, connections_per_month=80)
).generate().logs
TEXTS = {
    "ssl": ssl_log_to_string(_LOGS.ssl),
    "x509": x509_log_to_string(_LOGS.x509),
}
#: Two rotations concatenated: the second header block and the first
#: ``#close`` footer land mid-buffer at almost every chunk size.
ROTATED = {kind: text + text for kind, text in TEXTS.items()}

#: A string column per schema whose cells we can salt with escapes.
_ESCAPE_COLUMN = {"ssl": 8, "x509": 5}  # server_name / certificate.subject


def _with_escapes(text: str, column: int) -> str:
    """Every data row gets a cell full of ``\\xNN`` escapes — including
    ``\\x09`` (an escaped *tab*, which must never split a cell) and a
    trailing lone backslash a chunk seam could cut in half."""
    out = []
    for i, line in enumerate(text.split("\n")):
        if line and not line.startswith("#"):
            cells = line.split("\t")
            cells[column] = f"esc\\x09tab\\x2c\\x5c{i}.example\\x0a\\\\"
            line = "\t".join(cells)
        out.append(line)
    return "\n".join(out)


ESCAPED = {
    kind: _with_escapes(TEXTS[kind], _ESCAPE_COLUMN[kind]) for kind in KINDS
}


def _assert_matches_reference(kind, text, policy, chunk):
    slow_records, slow_report, slow_error = read_one(kind, text, policy, "off")
    records, report, error = read_one(
        kind, text, policy, "auto", chunk_chars=chunk
    )
    assert _error_context(error) == _error_context(slow_error), chunk
    assert [repr(r) for r in records] == [repr(r) for r in slow_records], chunk
    assert report.to_dict() == slow_report.to_dict(), chunk


@pytest.mark.parametrize("kind", KINDS)
@given(
    chunk=st.integers(1, 400),
    final_newline=st.booleans(),
    keep_close=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_chunk_size_invariance(kind, chunk, final_newline, keep_close):
    """Arbitrary chunk sizes slice records anywhere — mid-cell, mid-row,
    mid-header — and must reassemble to the reference result, with and
    without the ``#close`` footer and the final newline."""
    text = TEXTS[kind]
    if not keep_close:
        text = "".join(
            line
            for line in text.splitlines(keepends=True)
            if not line.startswith("#close")
        )
    if not final_newline:
        text = text.rstrip("\n")
    for policy in POLICIES:
        _assert_matches_reference(kind, text, policy, chunk)


@pytest.mark.parametrize("kind", KINDS)
@given(chunk=st.integers(16, 1 << 14))
@settings(max_examples=20, deadline=None)
def test_close_footer_mid_buffer(kind, chunk):
    """Concatenated rotations: a ``#close`` footer followed by a fresh
    header block appears in the middle of a read buffer, exactly as at
    an archive rotation point."""
    for policy in POLICIES:
        _assert_matches_reference(kind, ROTATED[kind], policy, chunk)


@pytest.mark.parametrize("kind", KINDS)
@given(chunk=st.integers(1, 300))
@settings(max_examples=15, deadline=None)
def test_embedded_escapes_survive_any_split(kind, chunk):
    """Cells stuffed with ``\\xNN`` escapes (including escaped tabs and
    a trailing lone backslash) decode identically no matter where the
    chunk seam cuts them."""
    for policy in POLICIES:
        _assert_matches_reference(kind, ESCAPED[kind], policy, chunk)


@pytest.mark.parametrize("kind", KINDS)
@given(chunk=st.integers(1, 300))
@settings(max_examples=10, deadline=None)
def test_crlf_stream_equivalent(kind, chunk):
    """A raw CRLF stream (no newline translation, ``\\r`` reaches the
    decoder) is handled identically by both tiers at any chunk size."""
    text = TEXTS[kind].replace("\n", "\r\n")
    for policy in POLICIES:
        _assert_matches_reference(kind, text, policy, chunk)


@pytest.mark.parametrize("kind", KINDS)
def test_crlf_file_round_trip(tmp_path, kind, monkeypatch):
    """A CRLF file read through the normal text-mode entry point (where
    universal newlines translate ``\\r\\n``) batch-decodes to exactly
    the reference records of the LF original."""
    text = TEXTS[kind]
    path = tmp_path / f"{kind}.log"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    reader = {"ssl": read_ssl_log, "x509": read_x509_log}[kind]
    monkeypatch.setattr(tsv, "BATCH_CHUNK_CHARS", 777)
    with path.open("r", encoding="utf-8") as source:
        records = reader(source, IngestOptions(fast_path="auto"))
    reference = read_one(kind, text, "strict", "off")[0]
    assert [repr(r) for r in records] == [repr(r) for r in reference]


class TestMemoBounds:
    """Satellite 5: the bulk decoder honours the per-line memo cap."""

    def _batch_read(self, kind, text, cap, monkeypatch):
        monkeypatch.setattr(tsv, "_MEMO_MAX_ENTRIES", cap)
        opts = IngestOptions(
            on_error="strict",
            fast_path="auto",
            report=IngestReport(),
            path=f"{kind}.log",
        )
        source = io.StringIO(text)
        reader = tsv._reader(kind, source, opts)
        return reader, reader.read(source)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mid_batch_eviction_keeps_cache_bounded(self, kind, monkeypatch):
        """A single batch holding far more distinct values than the cap
        must not grow any memo cache past it — and must still decode
        byte-identically to the reference."""
        cap = 8
        text = TEXTS[kind]
        reference = read_one(kind, text, "strict", "off")[0]
        reader, records = self._batch_read(kind, text, cap, monkeypatch)
        assert [repr(r) for r in records] == [repr(r) for r in reference]
        # The cap genuinely bites mid-batch: a memoized column carries
        # more distinct texts than the memo may ever hold.
        if kind == "ssl":
            distinct = {r.server_name for r in reference}
        else:
            distinct = {r.subject for r in reference}
        assert len(distinct) > cap
        memos = [
            memo
            for per_permutation in reader._batch_memos.values()
            for memo in per_permutation
        ]
        assert memos, "batch decode should have compiled column memos"
        for memo in memos:
            assert len(memo.cache) <= cap

    @pytest.mark.parametrize("kind", KINDS)
    def test_bounded_cache_still_deduplicates(self, kind, monkeypatch):
        """With a roomy cap the same corpus fills the caches normally —
        the bound changes memory behaviour only, never output."""
        reader, records = self._batch_read(
            kind, TEXTS[kind], 1 << 16, monkeypatch
        )
        reference = read_one(kind, TEXTS[kind], "strict", "off")[0]
        assert [repr(r) for r in records] == [repr(r) for r in reference]
        caches = [
            memo.cache
            for per_permutation in reader._batch_memos.values()
            for memo in per_permutation
        ]
        assert any(cache for cache in caches)
