"""Zeek TSV log format: writer and round-tripping reader.

Implements the header conventions of Zeek ASCII logs (``#separator``,
``#fields``, ``#types``, ``-`` for unset, ``(empty)`` for empty vectors)
and escapes separator characters inside values so that free-text
certificate subjects survive a round trip.

Readers take an :class:`~repro.zeek.ingest.ErrorPolicy`:

- ``strict`` (default) fails on the first malformed line, with file
  path, line number, and field name attached to the error;
- ``skip`` drops malformed rows and counts them in an
  :class:`~repro.zeek.ingest.IngestReport`;
- ``quarantine`` additionally captures the raw text of each bad line.

The lenient policies also tolerate truncated final lines (a crashed
writer), a missing ``#close`` footer (a mid-rotation restart), and
reordered ``#fields`` headers (columns are remapped to the expected
order).
"""

from __future__ import annotations

import datetime as _dt
import gc as _gc
import io
import itertools as _it
import sys as _sys
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from repro.zeek.ingest import ErrorPolicy, FastPath, IngestOptions, IngestReport
from repro.zeek.records import SslRecord, X509Record

_UNSET = "-"
_EMPTY = "(empty)"
_SET_SEP = ","


class TsvFormatError(Exception):
    """Raised when a log file does not parse.

    ``path``, ``line_number``, and ``field`` locate the fault when
    known; the rendered message includes whichever are available.
    """

    def __init__(
        self,
        reason: str,
        *,
        path: str | None = None,
        line_number: int | None = None,
        field: str | None = None,
    ) -> None:
        self.reason = reason
        self.path = path
        self.line_number = line_number
        self.field = field
        parts = []
        if path is not None:
            parts.append(str(path))
        if line_number is not None:
            parts.append(f"line {line_number}")
        if field is not None:
            parts.append(f"field {field!r}")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {reason}" if prefix else reason)

    def with_context(
        self, *, path: str | None, line_number: int | None, field: str | None
    ) -> "TsvFormatError":
        """The same fault, annotated with location (existing context wins)."""
        return TsvFormatError(
            self.reason,
            path=self.path if self.path is not None else path,
            line_number=(
                self.line_number if self.line_number is not None else line_number
            ),
            field=self.field if self.field is not None else field,
        )


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\t", "\\x09")
        .replace("\n", "\\x0a")
        .replace("\r", "\\x0d")
    )


def _unescape(value: str) -> str:
    out: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "\\":
                out.append("\\")
                index += 2
                continue
            if nxt == "x" and index + 3 < len(value):
                try:
                    out.append(chr(int(value[index + 2 : index + 4], 16)))
                    index += 4
                    continue
                except ValueError:
                    pass
        out.append(char)
        index += 1
    return "".join(out)


def _escape_vector_element(value: str) -> str:
    return _escape(value).replace(_SET_SEP, "\\x2c")


def _guard_marker(cell: str) -> str:
    """A cell whose whole text is a marker would read back as unset or
    empty, so its first character is escaped, as Zeek does: ``-``
    becomes ``\\x2d`` and ``(empty)`` becomes ``\\x28empty)``."""
    if cell == _UNSET or cell == _EMPTY:
        return f"\\x{ord(cell[0]):02x}{cell[1:]}"
    return cell


def _format_time(ts: _dt.datetime) -> str:
    return f"{ts.timestamp():.6f}"


def _parse_time(text: str) -> _dt.datetime:
    try:
        return _dt.datetime.fromtimestamp(float(text), tz=_dt.timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise TsvFormatError(f"bad time value {text!r}: {exc}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise TsvFormatError(f"not an integer: {text!r}") from exc


def _format_vector(values: Sequence[str]) -> str:
    if not values:
        return _EMPTY
    return _guard_marker(_SET_SEP.join(_escape_vector_element(v) for v in values))


def _parse_vector(text: str) -> tuple[str, ...]:
    if text == _EMPTY or text == _UNSET:
        return ()
    return tuple(_unescape(part) for part in text.split(_SET_SEP))


def _format_optional(value: str | None) -> str:
    return _UNSET if value is None else _guard_marker(_escape(value)) or _UNSET


def _parse_optional(text: str) -> str | None:
    return None if text == _UNSET else _unescape(text)


def _format_nullable(value: str | None) -> str:
    """Like `_format_optional` but keeps empty-vs-unset distinct:
    None -> '-', '' -> '(empty)' (Zeek's empty_field marker)."""
    if value is None:
        return _UNSET
    if value == "":
        return _EMPTY
    return _guard_marker(_escape(value))


def _parse_nullable(text: str) -> str | None:
    if text == _UNSET:
        return None
    if text == _EMPTY:
        return ""
    return _unescape(text)


def _format_bool(value: bool) -> str:
    return "T" if value else "F"


def _parse_bool(text: str) -> bool:
    if text == "T":
        return True
    if text == "F":
        return False
    raise TsvFormatError(f"not a bool: {text!r}")


def _parse_string(text: str) -> str:
    return text


def _parse_optional_bool(text: str) -> bool | None:
    return None if text == _UNSET else _parse_bool(text)


def _parse_defaulted_str(text: str) -> str:
    return _parse_optional(text) or ""


_SSL_FIELDS = [
    ("ts", "time"),
    ("uid", "string"),
    ("id.orig_h", "addr"),
    ("id.orig_p", "port"),
    ("id.resp_h", "addr"),
    ("id.resp_p", "port"),
    ("version", "string"),
    ("cipher", "string"),
    ("server_name", "string"),
    ("established", "bool"),
    ("cert_chain_fuids", "vector[string]"),
    ("client_cert_chain_fuids", "vector[string]"),
    ("validation_status", "string"),
    ("resumed", "bool"),
]

_X509_FIELDS = [
    ("ts", "time"),
    ("id", "string"),
    ("fingerprint", "string"),
    ("certificate.version", "count"),
    ("certificate.serial", "string"),
    ("certificate.subject", "string"),
    ("certificate.issuer", "string"),
    ("certificate.not_valid_before", "time"),
    ("certificate.not_valid_after", "time"),
    ("certificate.key_alg", "string"),
    ("certificate.sig_alg", "string"),
    ("certificate.key_length", "count"),
    ("san.dns", "vector[string]"),
    ("san.uri", "vector[string]"),
    ("san.email", "vector[string]"),
    ("san.ip", "vector[addr]"),
    ("basic_constraints.ca", "bool"),
    ("extended_key_usage", "vector[string]"),
]

#: Per-column parsers: (record keyword, parser) aligned with the
#: corresponding *_FIELDS list, so a parse failure can name the column.
_SSL_PARSERS: list[tuple[str, Callable]] = [
    ("ts", _parse_time),
    ("uid", _parse_string),
    ("id_orig_h", _parse_string),
    ("id_orig_p", _parse_int),
    ("id_resp_h", _parse_string),
    ("id_resp_p", _parse_int),
    ("version", _parse_string),
    ("cipher", _parse_string),
    ("server_name", _parse_optional),
    ("established", _parse_bool),
    ("cert_chain_fuids", _parse_vector),
    ("client_cert_chain_fuids", _parse_vector),
    ("validation_status", _parse_nullable),
    ("resumed", _parse_bool),
]

_X509_PARSERS: list[tuple[str, Callable]] = [
    ("ts", _parse_time),
    ("fuid", _parse_string),
    ("fingerprint", _parse_string),
    ("version", _parse_int),
    ("serial", _parse_string),
    ("subject", _parse_defaulted_str),
    ("issuer", _parse_defaulted_str),
    ("not_valid_before", _parse_time),
    ("not_valid_after", _parse_time),
    ("key_alg", _parse_string),
    ("sig_alg", _parse_string),
    ("key_length", _parse_int),
    ("san_dns", _parse_vector),
    ("san_uri", _parse_vector),
    ("san_email", _parse_vector),
    ("san_ip", _parse_vector),
    ("basic_constraints_ca", _parse_optional_bool),
    ("eku", _parse_vector),
]


# ---------------------------------------------------------------------------
# Fast converters and the compiled row decoder
#
# The slow path above is the executable reference spec: one parser call
# per field, dispatched through `_LogReader._handle_row`. The batch
# engine below converts whole columns with the converters defined here,
# memoized for high-repetition columns (versions, ciphers, issuer DNs,
# ports, validity timestamps). A run the batch engine rejects replays
# row by row through a compiled row decoder (one generated function per
# schema and column order: one dict literal, one bound converter per
# column). Every converter is value-for-value identical to its slow
# counterpart — the differential suite (`tests/differential/`) proves it
# on clean, corrupt, and adversarial input — and any anomaly at decode
# time falls back to the slow `_handle_row`, so errors and IngestReport
# accounting are byte-identical by construction.
# ---------------------------------------------------------------------------

#: Bound on each memoized converter's cache. The cache is *cleared* (not
#: LRU-evicted) when full: clearing only costs recomputation, never
#: correctness, and keeps the hot lookup a plain dict hit.
_MEMO_MAX_ENTRIES = 1 << 16


#: Cache-miss sentinel for the inlined memo lookups; a plain ``object``
#: can never collide with a converted value (which may be None).
_MISS = object()


class _Memo:
    """A memoized pure text converter, split open for codegen.

    The compiled decoder inlines the hit path as ``cache.get(cell,
    _MISS)`` — one C-level dict probe, no Python frame — and only calls
    :attr:`fill` on a miss. Failed conversions are never cached (the
    exception propagates before the store), so the failure set is
    exactly the wrapped function's.
    """

    __slots__ = ("cache", "fill", "fn")

    def __init__(self, fn: Callable[[str], object]) -> None:
        cache: dict = {}

        def fill(text: str, _cache=cache, _fn=fn, _cap=_MEMO_MAX_ENTRIES):
            if len(_cache) >= _cap:
                _cache.clear()
            value = _cache[text] = _fn(text)
            return value

        self.cache = cache
        self.fill = fill
        self.fn = fn

    def __call__(self, text: str) -> object:
        value = self.cache.get(text, _MISS)
        return self.fill(text) if value is _MISS else value


def _memoized(fn: Callable[[str], object]) -> _Memo:
    return _Memo(fn)


def _fast_time(
    text: str,
    _fromts=_dt.datetime.fromtimestamp,
    _utc=_dt.timezone.utc,
    _float=float,
) -> _dt.datetime:
    # Same conversion as `_parse_time` minus the error wrapping: a bad
    # value raises ValueError/OverflowError/OSError here, which makes
    # the compiled decoder fall back to the slow row path — and *that*
    # re-raises the reference TsvFormatError with identical context.
    return _fromts(_float(text), _utc)


def _fast_optional(text: str) -> str | None:
    if text == _UNSET:
        return None
    return _unescape(text) if "\\" in text else text


def _fast_nullable(text: str) -> str | None:
    if text == _UNSET:
        return None
    if text == _EMPTY:
        return ""
    return _unescape(text) if "\\" in text else text


def _fast_defaulted_str(text: str) -> str:
    # Equivalent to `_parse_optional(text) or ""` for every input,
    # including the bare-empty cell ('' stays '').
    if text == _UNSET:
        return ""
    return _unescape(text) if "\\" in text else text


def _fast_vector(text: str) -> tuple[str, ...]:
    if text == _EMPTY or text == _UNSET:
        return ()
    if "\\" in text:
        return tuple(_unescape(part) for part in text.split(_SET_SEP))
    if _SET_SEP in text:
        return tuple(text.split(_SET_SEP))
    return (text,)


def _ssl_fast_converters() -> list[tuple[str, Callable | None]]:
    """Fresh fast converters for one compiled ssl decoder, aligned with
    ``_SSL_PARSERS``. ``None`` marks a verbatim column (slow path uses
    the identity `_parse_string`); `sys.intern` collapses the heavy
    repeaters (addresses, versions, ciphers) to shared objects."""
    memo_port = _memoized(int)
    memo_addr = _memoized(_sys.intern)
    memo_bool = _memoized(_parse_bool)
    return [
        ("ts", _fast_time),
        ("uid", None),
        ("id_orig_h", memo_addr),
        ("id_orig_p", memo_port),
        ("id_resp_h", memo_addr),
        ("id_resp_p", memo_port),
        ("version", _memoized(_sys.intern)),
        ("cipher", _memoized(_sys.intern)),
        ("server_name", _memoized(_fast_optional)),
        ("established", memo_bool),
        ("cert_chain_fuids", _fast_vector),
        ("client_cert_chain_fuids", _fast_vector),
        ("validation_status", _memoized(_fast_nullable)),
        ("resumed", memo_bool),
    ]


def _x509_fast_converters() -> list[tuple[str, Callable | None]]:
    """Fresh fast converters for one compiled x509 decoder, aligned with
    ``_X509_PARSERS``. Certificates repeat heavily across fuids, so the
    DN, validity, and algorithm columns all memoize; the shared tuples
    returned by a memoized vector converter are safe because records
    never mutate them."""
    memo_time = _memoized(_parse_time)
    memo_count = _memoized(int)
    memo_name = _memoized(_sys.intern)
    return [
        ("ts", _fast_time),
        ("fuid", None),
        ("fingerprint", None),
        ("version", memo_count),
        ("serial", memo_name),
        ("subject", _memoized(_fast_defaulted_str)),
        ("issuer", _memoized(_fast_defaulted_str)),
        ("not_valid_before", memo_time),
        ("not_valid_after", memo_time),
        ("key_alg", memo_name),
        ("sig_alg", memo_name),
        ("key_length", memo_count),
        ("san_dns", _fast_vector),
        ("san_uri", _fast_vector),
        ("san_email", _fast_vector),
        ("san_ip", _fast_vector),
        ("basic_constraints_ca", _memoized(_parse_optional_bool)),
        ("eku", _memoized(_fast_vector)),
    ]


def _compile_decoder(
    factory: Callable,
    converters: list[tuple[str, Callable | None]],
    permutation: list[int] | None,
) -> Callable[[list[str]], object]:
    """Generate a single-pass row decoder for one (schema, column order).

    The generated function builds the record's ``__dict__`` as one dict
    literal — each entry a bound converter applied to its (possibly
    permuted) cell — and installs it with ``object.__setattr__``,
    bypassing the frozen dataclass's per-field ``__setattr__`` while
    keeping instances frozen, equal, hashable, and picklable.
    """
    namespace: dict = {
        "_new": object.__new__,
        "_set": object.__setattr__,
        "_cls": factory,
        "_MISS": _MISS,
    }
    prelude: list[str] = []
    parts: list[str] = []
    for index, (name, convert) in enumerate(converters):
        cell = permutation[index] if permutation is not None else index
        if convert is None:
            parts.append(f"{name!r}: cells[{cell}]")
        elif isinstance(convert, _Memo):
            # Inline the hit path: one dict probe, no Python call.
            namespace[f"_d{index}"] = convert.cache
            namespace[f"_f{index}"] = convert.fill
            prelude.append(f"    v{index} = _d{index}.get(cells[{cell}], _MISS)")
            prelude.append(f"    if v{index} is _MISS:")
            prelude.append(f"        v{index} = _f{index}(cells[{cell}])")
            parts.append(f"{name!r}: v{index}")
        else:
            namespace[f"_c{index}"] = convert
            parts.append(f"{name!r}: _c{index}(cells[{cell}])")
    source = (
        "def _decode(cells):\n"
        + "\n".join(prelude) + ("\n" if prelude else "")
        + "    r = _new(_cls)\n"
        + "    _set(r, '__dict__', {" + ", ".join(parts) + "})\n"
        + "    return r\n"
    )
    exec(source, namespace)  # noqa: S102 — source built from literals above
    return namespace["_decode"]


# ---------------------------------------------------------------------------
# Batch engine: whole-buffer splitting + columnar bulk decode
#
# Read the stream in large chunks, split record boundaries once per
# chunk, and decode *columns* in bulk — a run of same-shaped rows is
# flattened with one `"\t".join(run).split("\t")` and each column is
# materialized as a zero-copy stride slice pushed through one C-level
# `map` (or one set-deduplicated memo fill) per column. Only then are
# records assembled, so a failing run leaves the output untouched and
# replays row by row through the compiled row decoder and the reference
# `_handle_row` path — errors, IngestReport accounting, and quarantine
# stay byte-identical by construction (proven by tests/differential and
# the splitter property suite).
# ---------------------------------------------------------------------------

#: Read-buffer size for the batch engine, read at call time. Output is
#: invariant under chunk size (the splitter property tests patch it down
#: to 1 char); it only trades peak memory against per-chunk overhead.
BATCH_CHUNK_CHARS = 1 << 20


def _bulk_memo(memo: _Memo, column: list) -> list:
    """One memoized column, converted in bulk.

    Deduplicates through a set so a column costs one conversion per
    *distinct* text. The shared cache is only bulk-filled when the new
    values fit under ``_MEMO_MAX_ENTRIES`` (read at call time, so tests
    can shrink it); an oversized batch routes misses through the memo's
    own bounded ``fill`` into a run-local table instead — a batch can
    never grow the cache past its cap.
    """
    cache = memo.cache
    distinct = set(column)
    missing = distinct.difference(cache)
    if not missing:
        return list(map(cache.__getitem__, column))
    if len(cache) + len(missing) <= _MEMO_MAX_ENTRIES:
        fn = memo.fn
        for text in missing:
            cache[text] = fn(text)
        return list(map(cache.__getitem__, column))
    fill = memo.fill
    get = cache.get
    local: dict = {}
    for text in distinct:
        value = get(text, _MISS)
        local[text] = fill(text) if value is _MISS else value
    return list(map(local.__getitem__, column))


def _compile_batch_decoder(
    factory: Callable,
    converters: list[tuple[str, Callable | None]],
    permutation: list[int] | None,
) -> Callable[[list[str], int], list | None]:
    """Generate a columnar run decoder for one (schema, column order).

    The generated function takes the *flattened cells* of ``n``
    consecutive data rows (one join+split — or one whole-buffer
    replace+split — upstream), verifies the shape with a single length
    check, slices each column out by stride, converts every column in
    bulk, and only then assembles records (one ``__dict__`` per row,
    same construction as the row decoder). All conversions happen
    before any record exists, so any failure aborts the whole run
    cleanly; a shape mismatch returns ``None`` (caller replays).
    """
    ncols = len(converters)
    namespace: dict = {
        "_new": object.__new__,
        "_set": object.__setattr__,
        "_cls": factory,
        "_bulk": _bulk_memo,
        "_repeat": _it.repeat,
        "_fromts": _dt.datetime.fromtimestamp,
        "_float": float,
        "_utc": _dt.timezone.utc,
    }
    body: list[str] = [
        "def _decode_batch(flat, n):",
        # Shape check for the whole run at once: every row must hold
        # exactly ncols cells or the flatten strides would shear.
        f"    if len(flat) != {ncols} * n:",
        "        return None",
    ]
    names: list[str] = []
    for index, (name, convert) in enumerate(converters):
        names.append(name)
        cell = permutation[index] if permutation is not None else index
        sl = f"flat[{cell}::{ncols}]"
        if convert is None:
            body.append(f"    c{index} = {sl}")
        elif convert is _fast_time:
            # The whole time column through one C-level map pipeline.
            body.append(
                f"    c{index} = list(map(_fromts, map(_float, {sl}),"
                " _repeat(_utc)))"
            )
        elif isinstance(convert, _Memo):
            namespace[f"_m{index}"] = convert
            body.append(f"    c{index} = _bulk(_m{index}, {sl})")
        else:
            namespace[f"_f{index}"] = convert
            body.append(f"    c{index} = list(map(_f{index}, {sl}))")
    args = ", ".join(f"v{i}" for i in range(ncols))
    cols = ", ".join(f"c{i}" for i in range(ncols))
    dict_parts = ", ".join(f"{name!r}: v{i}" for i, name in enumerate(names))
    body += [
        "    out = []",
        "    append = out.append",
        f"    for {args} in zip({cols}):",
        "        r = _new(_cls)",
        "        _set(r, '__dict__', {" + dict_parts + "})",
        "        append(r)",
        "    return out",
    ]
    source = "\n".join(body) + "\n"
    exec(source, namespace)  # noqa: S102 — source built from literals above
    return namespace["_decode_batch"]


def _write_header(out: TextIO, path: str, fields: list[tuple[str, str]]) -> None:
    out.write("#separator \\x09\n")
    out.write("#set_separator\t,\n")
    out.write(f"#empty_field\t{_EMPTY}\n")
    out.write(f"#unset_field\t{_UNSET}\n")
    out.write(f"#path\t{path}\n")
    out.write("#fields\t" + "\t".join(name for name, _ in fields) + "\n")
    out.write("#types\t" + "\t".join(type_ for _, type_ in fields) + "\n")


def format_ssl_row(r: SslRecord) -> str:
    """One ssl.log data row (no trailing newline) in Zeek TSV format."""
    row = [
        _format_time(r.ts),
        r.uid,
        r.id_orig_h,
        str(r.id_orig_p),
        r.id_resp_h,
        str(r.id_resp_p),
        r.version,
        r.cipher,
        _format_optional(r.server_name),
        _format_bool(r.established),
        _format_vector(r.cert_chain_fuids),
        _format_vector(r.client_cert_chain_fuids),
        _format_nullable(r.validation_status),
        _format_bool(r.resumed),
    ]
    return "\t".join(row)


def format_x509_row(r: X509Record) -> str:
    """One x509.log data row (no trailing newline) in Zeek TSV format."""
    ca = r.basic_constraints_ca
    row = [
        _format_time(r.ts),
        r.fuid,
        r.fingerprint,
        str(r.version),
        r.serial,
        _format_optional(r.subject or None),
        _format_optional(r.issuer or None),
        _format_time(r.not_valid_before),
        _format_time(r.not_valid_after),
        r.key_alg,
        r.sig_alg,
        str(r.key_length),
        _format_vector(r.san_dns),
        _format_vector(r.san_uri),
        _format_vector(r.san_email),
        _format_vector(r.san_ip),
        _UNSET if ca is None else _format_bool(ca),
        _format_vector(r.eku),
    ]
    return "\t".join(row)


def log_header_text(kind: str) -> str:
    """The full header block (``#separator`` .. ``#types``) for one log
    kind (``'ssl'`` or ``'x509'``), newline-terminated."""
    if kind not in ("ssl", "x509"):
        raise ValueError(f"unknown log kind {kind!r}")
    buffer = io.StringIO()
    _write_header(buffer, kind, _SSL_FIELDS if kind == "ssl" else _X509_FIELDS)
    return buffer.getvalue()


def write_ssl_log(records: Iterable[SslRecord], out: TextIO) -> None:
    """Write ssl.log rows in Zeek TSV format."""
    _write_header(out, "ssl", _SSL_FIELDS)
    for r in records:
        out.write(format_ssl_row(r) + "\n")
    out.write("#close\n")


def write_x509_log(records: Iterable[X509Record], out: TextIO) -> None:
    """Write x509.log rows in Zeek TSV format."""
    _write_header(out, "x509", _X509_FIELDS)
    for r in records:
        out.write(format_x509_row(r) + "\n")
    out.write("#close\n")


class _LogReader:
    """One pass over one log stream under one error policy."""

    def __init__(
        self,
        expected_path: str,
        fields: list[tuple[str, str]],
        parsers: list[tuple[str, Callable]],
        factory: Callable,
        policy: ErrorPolicy,
        report: IngestReport | None,
        path: str | None,
        fast_converters: Callable[[], list[tuple[str, Callable | None]]],
        *,
        batched: bool = False,
    ) -> None:
        self.expected_path = expected_path
        self.field_names = [name for name, _ in fields]
        self.parsers = parsers
        self.factory = factory
        self.policy = policy
        self.report = report if report is not None else IngestReport()
        self.path = path or f"<{expected_path}.log>"
        #: expected-index -> seen-index remap for reordered headers.
        self.permutation: list[int] | None = None
        self.saw_fields = False
        self.header_usable = False
        self.path_rejected = False
        self.saw_close = False
        #: The batch (columnar) engine; otherwise every row goes through
        #: the reference `_handle_row`.
        self.batched = batched
        self._fast_converters = fast_converters
        #: column-order key -> compiled decoder (one per permutation).
        self._decoders: dict[tuple[int, ...] | None, Callable] = {}
        self._batch_decoders: dict[tuple[int, ...] | None, Callable] = {}
        #: column-order key -> that batch decoder's memos (test hook).
        self._batch_memos: dict[tuple[int, ...] | None, list[_Memo]] = {}

    # ------------------------------------------------------------------ helpers

    def _fail(
        self, reason: str, line_number: int, field: str | None
    ) -> TsvFormatError:
        return TsvFormatError(
            reason, path=self.path, line_number=line_number, field=field
        )

    def _drop(
        self,
        *,
        line_number: int,
        category: str,
        reason: str,
        field: str | None,
        raw: str,
    ) -> None:
        self.report.record_drop(
            path=self.path,
            line_number=line_number,
            category=category,
            reason=reason,
            field=field,
            raw=raw if self.policy.captures_raw else None,
        )

    def _cut_field(self, cells: list[str]) -> str:
        """The column where a short/truncated row stops — the most
        useful single field name for a structural row fault."""
        n = len(self.field_names)
        if len(cells) < n:
            return self.field_names[len(cells)]
        return self.field_names[-1]

    # ------------------------------------------------------------------- header

    def _handle_header(self, line: str, line_number: int) -> None:
        if line == "#close" or line.startswith("#close\t"):
            self.saw_close = True
            return
        if line.startswith("#path\t"):
            found = line.split("\t", 1)[1]
            if found != self.expected_path:
                reason = f"expected #path {self.expected_path}, found {found}"
                if not self.policy.lenient:
                    raise self._fail(reason, line_number, "#path")
                self.header_usable = False
                self.path_rejected = True
                self.saw_fields = True  # rows are attributed to the bad header
                self.report.record_header_issue(
                    path=self.path, line_number=line_number,
                    category="path-mismatch", reason=reason,
                )
            return
        if line.startswith("#fields\t"):
            seen = line.split("\t")[1:]
            self.saw_fields = True
            if self.path_rejected:
                return  # the whole file was rejected by #path
            if seen == self.field_names:
                self.permutation = None
                self.header_usable = True
                return
            if sorted(seen) == sorted(self.field_names):
                if not self.policy.lenient:
                    raise self._fail(
                        f"unexpected #fields on line {line_number}: {seen}",
                        line_number, "#fields",
                    )
                self.permutation = [seen.index(n) for n in self.field_names]
                self.header_usable = True
                self.report.header_recoveries += 1
                self.report.record_header_issue(
                    path=self.path, line_number=line_number,
                    category="reordered-fields",
                    reason="columns reordered; remapped to expected order",
                )
                return
            reason = f"unexpected #fields on line {line_number}: {seen}"
            if not self.policy.lenient:
                raise self._fail(reason, line_number, "#fields")
            self.header_usable = False
            self.report.record_header_issue(
                path=self.path, line_number=line_number,
                category="unusable-header", reason=reason,
            )

    # --------------------------------------------------------------------- rows

    def _handle_row(self, line: str, line_number: int, complete: bool) -> object:
        """Parse one data row; returns a record or None (dropped)."""
        cells = line.split("\t")
        if not complete:
            reason = "truncated final line (no trailing newline)"
            if not self.policy.lenient:
                raise self._fail(reason, line_number, self._cut_field(cells))
            self.report.truncated_final_lines += 1
            self._drop(
                line_number=line_number, category="truncated-final-line",
                reason=reason, field=self._cut_field(cells), raw=line,
            )
            return None
        if not self.saw_fields:
            reason = "data row before #fields header"
            if not self.policy.lenient:
                raise TsvFormatError(
                    reason, path=self.path, line_number=line_number,
                    field=self._cut_field(cells),
                )
            self._drop(
                line_number=line_number, category="no-fields-header",
                reason=reason, field=None, raw=line,
            )
            return None
        if not self.header_usable:
            self._drop(
                line_number=line_number, category="unusable-header",
                reason="row under an unusable #fields header",
                field=None, raw=line,
            )
            return None
        if len(cells) != len(self.field_names):
            reason = (
                f"line {line_number}: expected {len(self.field_names)} cells, "
                f"got {len(cells)}"
            )
            if not self.policy.lenient:
                raise self._fail(reason, line_number, self._cut_field(cells))
            self._drop(
                line_number=line_number, category="cell-count",
                reason=reason, field=self._cut_field(cells), raw=line,
            )
            return None
        kwargs = {}
        for index, (keyword, parse) in enumerate(self.parsers):
            cell = (
                cells[self.permutation[index]]
                if self.permutation is not None
                else cells[index]
            )
            try:
                kwargs[keyword] = parse(cell)
            except TsvFormatError as exc:
                column = self.field_names[index]
                if not self.policy.lenient:
                    raise exc.with_context(
                        path=self.path, line_number=line_number, field=column
                    ) from exc
                self._drop(
                    line_number=line_number, category="bad-field",
                    reason=exc.reason, field=column, raw=line,
                )
                return None
        self.report.record_row()
        return self.factory(**kwargs)

    # --------------------------------------------------------------------- read

    def read(self, source: TextIO) -> list:
        if self.batched:
            # `iter_batches` performs the per-file accounting itself.
            records = []
            for batch in self.iter_batches(source):
                records.extend(batch)
            return records
        self.report.files_read += 1
        records = self._read_slow(source)
        self._account_close()
        return records

    def _account_close(self) -> None:
        """End-of-file accounting: a file without ``#close`` counts as
        missing its footer."""
        if not self.saw_close:
            self.report.files_missing_close += 1
            self.report.record_header_issue(
                path=self.path, line_number=0, category="missing-close",
                reason="no #close footer (writer crashed mid-rotation?)",
            )

    def _read_slow(self, source: TextIO) -> list:
        records = []
        for line_number, raw_line in enumerate(source, start=1):
            complete = raw_line.endswith("\n")
            line = raw_line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                self._handle_header(line, line_number)
                continue
            record = self._handle_row(line, line_number, complete)
            if record is not None:
                records.append(record)
        return records

    def _decoder_for_state(self) -> Callable[[list[str]], object] | None:
        """The compiled decoder for the current header state, or None
        when rows cannot be fast-decoded (no usable #fields yet)."""
        if not (self.saw_fields and self.header_usable):
            return None
        key = tuple(self.permutation) if self.permutation is not None else None
        decoder = self._decoders.get(key)
        if decoder is None:
            decoder = self._decoders[key] = _compile_decoder(
                self.factory, self._fast_converters(), self.permutation
            )
        return decoder

    # ------------------------------------------------------------- batch engine

    def _batch_decoder_for_state(self) -> Callable[[list[str]], list] | None:
        """The columnar run decoder for the current header state, or
        None when rows cannot be batch-decoded (no usable #fields)."""
        if not (self.saw_fields and self.header_usable):
            return None
        key = tuple(self.permutation) if self.permutation is not None else None
        decoder = self._batch_decoders.get(key)
        if decoder is None:
            converters = self._fast_converters()
            decoder = self._batch_decoders[key] = _compile_batch_decoder(
                self.factory, converters, self.permutation
            )
            self._batch_memos[key] = [
                convert for _, convert in converters
                if isinstance(convert, _Memo)
            ]
        return decoder

    def _flush_run(
        self, decode: Callable | None, run: list[str], start: int, records: list
    ) -> None:
        """Decode one run of candidate data lines; replay on anomaly.

        A run is a maximal stretch of non-blank, non-``#`` lines. Shape
        is verified *after* the flatten (one length check per run
        instead of one tab count per line); any mismatch — or any
        converter failure — replays the run row by row.
        """
        if decode is None:
            self._replay_run(run, start, records)
            return
        try:
            batch = decode("\t".join(run).split("\t"), len(run))
        except Exception:
            self._replay_run(run, start, records)
            return
        if batch is None:  # shape mismatch somewhere in the run
            self._replay_run(run, start, records)
            return
        records.extend(batch)
        self.report.rows_ok += len(run)

    def _replay_run(self, run: list[str], start: int, records: list) -> None:
        """A run the bulk decoder rejected, replayed row by row through
        the compiled row decoder with the reference `_handle_row`
        fallback — errors, drops, and quarantine match the reference
        path exactly (``ok`` flushed in ``finally`` so a strict-policy
        raise leaves the report as the reference path would)."""
        decode = self._decoder_for_state()
        append = records.append
        expected = len(self.field_names)
        ok = 0
        try:
            for offset, line in enumerate(run):
                line_number = start + offset
                if decode is not None:
                    cells = line.split("\t")
                    if len(cells) == expected:
                        try:
                            record = decode(cells)
                        except Exception:
                            record = self._handle_row(line, line_number, True)
                            if record is not None:
                                append(record)
                            continue
                        append(record)
                        ok += 1
                        continue
                record = self._handle_row(line, line_number, True)
                if record is not None:
                    append(record)
        finally:
            self.report.rows_ok += ok

    def _decode_lines_batched(
        self, lines: list[str], line_number: int, records: list
    ) -> int:
        """Batch-decode *complete* lines, appending records in order.

        One pass finds the *special* lines (blank or ``#``-prefixed);
        the stretches between them are decoded as runs via direct list
        slices — no per-line Python work on the hot path. Headers and
        anomalous rows flush the pending run first, keeping record
        order and — under strict — report-at-raise state identical to
        line-at-a-time reading. Returns the line number of the last
        line processed.
        """
        decode = self._batch_decoder_for_state()
        specials = [
            index for index, line in enumerate(lines)
            if not line or line[0] == "#"
        ]
        cursor = 0
        for index in specials:
            if index > cursor:
                self._flush_run(
                    decode, lines[cursor:index], line_number + cursor + 1,
                    records,
                )
            line = lines[index]
            if line:
                self._handle_header(line, line_number + index + 1)
                decode = self._batch_decoder_for_state()
            cursor = index + 1
        if cursor < len(lines):
            self._flush_run(
                decode, lines[cursor:], line_number + cursor + 1, records
            )
        return line_number + len(lines)

    def iter_batches(self, source: TextIO) -> Iterator[list]:
        """Stream the file as decoded record batches (one per chunk).

        The incremental sibling of :meth:`read` for the batch engine:
        whole buffers are read, split at record boundaries once, and a
        record spanning a chunk boundary is carried over as the pending
        tail — only at EOF does a non-empty tail become the reference
        truncated-final-line case. Performs the same per-file accounting
        (``files_read``, missing ``#close``) as :meth:`read`.
        """
        self.report.files_read += 1
        size = BATCH_CHUNK_CHARS
        pending = ""
        line_number = 0
        read = source.read
        while True:
            chunk = read(size)
            if not chunk:
                break
            segment = pending + chunk
            cut = segment.rfind("\n")
            if cut < 0:
                pending = segment
                continue
            body = segment[:cut]
            pending = segment[cut + 1 :]
            if not body:
                line_number += 1  # a lone blank line
                continue
            records = []
            # Pause the cyclic GC for the allocation burst of one chunk
            # (hundreds of thousands of cells + records); nothing here
            # creates reference cycles and the pause is bounded.
            gc_was_enabled = _gc.isenabled()
            if gc_was_enabled:
                _gc.disable()
            try:
                decode = self._batch_decoder_for_state()
                batch = None
                if (
                    decode is not None
                    and body[0] not in ("#", "\n")
                    and "\n#" not in body
                    and "\n\n" not in body
                    and body[-1] != "\n"
                ):
                    # Clean interior chunk: no headers, no blank lines.
                    # Decode the whole body with one replace+split —
                    # the per-line strings never materialize.
                    n = body.count("\n") + 1
                    try:
                        batch = decode(
                            body.replace("\n", "\t").split("\t"), n
                        )
                    except Exception:
                        batch = None  # replayed below, line by line
                if batch is not None:
                    records = batch
                    self.report.rows_ok += n
                    line_number += n
                else:
                    line_number = self._decode_lines_batched(
                        body.split("\n"), line_number, records
                    )
            finally:
                if gc_was_enabled:
                    _gc.enable()
            if records:
                yield records
        if pending:
            line_number += 1
            if pending[0] == "#":
                # Headers are processed regardless of the trailing
                # newline (same as the whole-file readers).
                self._handle_header(pending, line_number)
            else:
                record = self._handle_row(pending, line_number, False)
                if record is not None:
                    yield [record]
        self._account_close()


def read_ssl_log(
    source: TextIO, options: IngestOptions | None = None
) -> list[SslRecord]:
    """Parse a Zeek-format ssl.log stream under :class:`IngestOptions`.

    ``options.fast_path`` selects the batch engine (``auto``) or the
    reference per-field implementation (``off``); both produce
    byte-identical records, errors, and reports.
    """
    return _reader("ssl", source, IngestOptions.coerce(options)).read(source)


def read_x509_log(
    source: TextIO, options: IngestOptions | None = None
) -> list[X509Record]:
    """Parse a Zeek-format x509.log stream; see :func:`read_ssl_log`."""
    return _reader("x509", source, IngestOptions.coerce(options)).read(source)


def _reader(kind: str, source: TextIO, opts: IngestOptions) -> _LogReader:
    fields, parsers, factory, converters = TailDecoder._SCHEMAS[kind]
    return _LogReader(
        kind, fields, parsers, factory,
        opts.on_error, opts.report,
        opts.path or getattr(source, "name", None),
        converters,
        batched=opts.fast_path.enabled,
    )


def iter_ssl_log_batches(
    source: TextIO, options: IngestOptions | None = None
) -> Iterator[list[SslRecord]]:
    """Decoded ssl.log record batches, one per read buffer.

    The pipelined-ingest entry point: batches stream out while the rest
    of the file is still unread. Under ``fast_path="off"`` the whole
    stream is yielded as a single batch, so consumers work — and stay
    byte-identical — under every mode.
    """
    reader = _reader("ssl", source, IngestOptions.coerce(options))
    if reader.batched:
        return reader.iter_batches(source)
    return iter((reader.read(source),))


class TailDecoder:
    """Incremental, restartable TSV decoder for one live log file.

    Built for tailing a file that is still being written: feed arbitrary
    chunks of text as they become readable and complete lines are
    decoded immediately — through the same header handling, error
    policy, decode engine, and :class:`IngestReport` accounting as the
    whole-file readers. An unterminated trailing line (a mid-write read) is
    *buffered*, never dropped or miscounted; it decodes once its newline
    arrives in a later chunk. Only :meth:`finish` — called when the file
    instance truly ends (rotation drained, truncation, writer gone) —
    flushes a still-pending tail through the batch truncated-final-line
    path and performs the missing-``#close`` accounting.

    The decode state (header permutation, line number, pending tail) is
    JSON-serializable via :meth:`state_dict`/:meth:`load_state`, so a
    checkpointed tailer can resume mid-file with line numbers and
    accounting identical to an uninterrupted read. Restores construct
    with ``count_file=False``: the original decoder already counted the
    file when it was first opened.
    """

    _SCHEMAS: dict[str, tuple] = {
        "ssl": (_SSL_FIELDS, _SSL_PARSERS, SslRecord, _ssl_fast_converters),
        "x509": (_X509_FIELDS, _X509_PARSERS, X509Record, _x509_fast_converters),
    }

    def __init__(
        self,
        kind: str,
        *,
        on_error: ErrorPolicy | str = ErrorPolicy.STRICT,
        report: IngestReport | None = None,
        path: str | None = None,
        fast_path: FastPath | str = FastPath.AUTO,
        count_file: bool = True,
    ) -> None:
        try:
            fields, parsers, factory, converters = self._SCHEMAS[kind]
        except KeyError:
            raise ValueError(f"unknown log kind {kind!r}") from None
        self.kind = kind
        self._reader = _LogReader(
            kind, fields, parsers, factory,
            ErrorPolicy.coerce(on_error), report, path, converters,
            batched=FastPath.coerce(fast_path).enabled,
        )
        if count_file:
            self._reader.report.files_read += 1
        self._pending = ""
        self._line_number = 0
        self._finished = False

    @property
    def report(self) -> IngestReport:
        return self._reader.report

    @property
    def pending(self) -> str:
        """The buffered unterminated tail, if any."""
        return self._pending

    @property
    def saw_close(self) -> bool:
        return self._reader.saw_close

    @property
    def finished(self) -> bool:
        return self._finished

    def feed(self, chunk: str) -> list:
        """Decode every complete line in ``pending + chunk``; buffer the rest."""
        if self._finished:
            raise ValueError("feed() after finish()")
        if not chunk:
            return []
        lines = (self._pending + chunk).split("\n")
        self._pending = lines.pop()
        reader = self._reader
        records: list = []
        if reader.batched:
            self._line_number = reader._decode_lines_batched(
                lines, self._line_number, records
            )
            return records
        for line in lines:
            self._line_number += 1
            if not line:
                continue
            if line[0] == "#":
                reader._handle_header(line, self._line_number)
                continue
            record = reader._handle_row(line, self._line_number, True)
            if record is not None:
                records.append(record)
        return records

    def finish(self) -> list:
        """End of this file instance: flush a pending tail as a
        truncated final line and account a missing ``#close``."""
        if self._finished:
            return []
        self._finished = True
        reader = self._reader
        records: list = []
        line, self._pending = self._pending, ""
        if line:
            self._line_number += 1
            if line[0] == "#":
                # Batch readers process headers regardless of the
                # trailing newline; mirror that for a cut-off footer.
                reader._handle_header(line, self._line_number)
            else:
                record = reader._handle_row(line, self._line_number, False)
                if record is not None:
                    records.append(record)
        reader._account_close()
        return records

    def state_dict(self) -> dict:
        reader = self._reader
        return {
            "kind": self.kind,
            "pending": self._pending,
            "line_number": self._line_number,
            "finished": self._finished,
            "permutation": (
                list(reader.permutation) if reader.permutation is not None else None
            ),
            "saw_fields": reader.saw_fields,
            "header_usable": reader.header_usable,
            "path_rejected": reader.path_rejected,
            "saw_close": reader.saw_close,
        }

    def load_state(self, state: dict) -> None:
        if state.get("kind") != self.kind:
            raise ValueError(
                f"decoder state is for kind {state.get('kind')!r}, not {self.kind!r}"
            )
        reader = self._reader
        self._pending = state["pending"]
        self._line_number = state["line_number"]
        self._finished = state["finished"]
        permutation = state["permutation"]
        reader.permutation = (
            list(permutation) if permutation is not None else None
        )
        reader.saw_fields = state["saw_fields"]
        reader.header_usable = state["header_usable"]
        reader.path_rejected = state["path_rejected"]
        reader.saw_close = state["saw_close"]


def ssl_log_to_string(records: Iterable[SslRecord]) -> str:
    buffer = io.StringIO()
    write_ssl_log(records, buffer)
    return buffer.getvalue()


def x509_log_to_string(records: Iterable[X509Record]) -> str:
    buffer = io.StringIO()
    write_x509_log(records, buffer)
    return buffer.getvalue()
