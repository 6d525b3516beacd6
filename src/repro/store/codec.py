"""Columnar codec: struct-packed column files with interned strings.

One ``.col`` file holds one record table (an ssl shard or an x509 month
partition) as fixed-width columns::

    magic (8B)  "RPCOL2\\n\\0"
    u32         header length
    u32         header CRC32
    JSON header kind, row count, codec version, column metadata,
                section lengths **and CRC32s** (in file order)
    sections    8-byte aligned, back to back

Every section carries a CRC32 in the header, the header itself is
covered by the fixed-position header CRC, and readers verify the header
at map time and each section the first time its bytes are served (see
:class:`ColumnTable`), so a flipped bit is detected before a single
damaged value can reach an analysis — while queries that slice a few
columns never pay to CRC the columns they skip. This is the only layout
the codec reads or writes: any other magic is rejected as "bad magic",
and a store holding such files is repacked from its TSV archive.

Column storage types:

- ``i64``   — little-endian int64 array (timestamps as epoch
              microseconds, counts, ports);
- ``u8``    — one byte per row (bools; ``2`` is the null for ``bool?``);
- ``str``   — u32 indexes into the file's string pool
              (``0xFFFFFFFF`` is the null for ``str?``);
- ``strlist`` — a u32 offsets array (rows+1) plus a u32 values array of
              pool indexes, encoding one string tuple per row.

The string pool is two sections (offsets + utf-8 blob) holding each
distinct string once. Timestamps round-trip exactly: the TSV parser
produces microsecond-quantized tz-aware datetimes, and
``epoch + timedelta(microseconds=n)`` reconstructs the identical value.

The ssl table carries two derived columns the record schema does not
have: ``__month__`` (the row's 'YYYY-MM' label as a pool index) and
``__flags__`` (a predicate bitmap: established, server chain non-empty,
client chain non-empty, TLSv13, resumed). They cost one byte-ish per
row and let the store-native query engine answer the headline analyses
with C-speed byte counting instead of record materialization.
"""

from __future__ import annotations

import datetime as _dt
import json
import struct
import sys
import zlib
from array import array
from typing import Sequence

from repro.zeek.files import month_key
from repro.zeek.records import SslRecord, X509Record

#: Container magic (codec 2: header CRC plus per-section checksums).
MAGIC = b"RPCOL2\n\x00"
CODEC_VERSION = 2

#: Pool-index null sentinel for ``str?`` columns.
NULL_INDEX = 0xFFFFFFFF

#: ``__flags__`` bits (ssl tables only).
FLAG_ESTABLISHED = 1
FLAG_SERVER_CHAIN = 2
FLAG_CLIENT_CHAIN = 4
FLAG_TLS13 = 8
FLAG_RESUMED = 16

_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)
_MICRO = _dt.timedelta(microseconds=1)

#: (record field, logical type) per table kind; drives both encode and
#: decode, so the two cannot drift apart.
SSL_SCHEMA: list[tuple[str, str]] = [
    ("ts", "time"),
    ("uid", "str"),
    ("id_orig_h", "str"),
    ("id_orig_p", "i64"),
    ("id_resp_h", "str"),
    ("id_resp_p", "i64"),
    ("version", "str"),
    ("cipher", "str"),
    ("server_name", "str?"),
    ("established", "bool"),
    ("cert_chain_fuids", "strlist"),
    ("client_cert_chain_fuids", "strlist"),
    ("validation_status", "str?"),
    ("resumed", "bool"),
]

X509_SCHEMA: list[tuple[str, str]] = [
    ("ts", "time"),
    ("fuid", "str"),
    ("fingerprint", "str"),
    ("version", "i64"),
    ("serial", "str"),
    ("subject", "str"),
    ("issuer", "str"),
    ("not_valid_before", "time"),
    ("not_valid_after", "time"),
    ("key_alg", "str"),
    ("sig_alg", "str"),
    ("key_length", "i64"),
    ("san_dns", "strlist"),
    ("san_uri", "strlist"),
    ("san_email", "strlist"),
    ("san_ip", "strlist"),
    ("basic_constraints_ca", "bool?"),
    ("eku", "strlist"),
]

_SCHEMAS = {"ssl": (SSL_SCHEMA, SslRecord), "x509": (X509_SCHEMA, X509Record)}

_LITTLE = sys.byteorder == "little"


class StoreFormatError(Exception):
    """A column file or manifest that cannot be served.

    Raised for bad magic, an unknown codec version, a truncated file, a
    missing, torn or foreign-format manifest, or a policy/fingerprint
    mismatch between store and request.
    """


class StoreIntegrityError(StoreFormatError):
    """A well-formed file whose checksums do not match its bytes.

    Distinct from :class:`StoreFormatError` proper because the response
    differs: a format error means the file was never ours (or predates
    the codec) and the whole store is repacked, an integrity error means
    our file was *damaged after writing* — bit rot, a torn write, a
    truncation — and is a candidate for quarantine-and-repack
    (``repro fsck --repair``).
    """

    def __init__(self, message: str, *, findings: list[str] | None = None) -> None:
        super().__init__(message)
        #: Human-readable list of damaged pieces (section names etc.).
        self.findings = findings or []


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _to_micros(ts: _dt.datetime) -> int:
    if ts.tzinfo is None:
        raise StoreFormatError(
            "naive datetime cannot be packed; the columnar store holds "
            "TSV-parsed records (tz-aware, microsecond-quantized)"
        )
    return (ts - _EPOCH) // _MICRO


def _from_micros(micros: int) -> _dt.datetime:
    return _EPOCH + _dt.timedelta(microseconds=micros)


class _Pool:
    """Build-side string interner: one index per distinct string."""

    __slots__ = ("index", "strings")

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.strings: list[str] = []

    def intern(self, text: str) -> int:
        idx = self.index.get(text)
        if idx is None:
            idx = self.index[text] = len(self.strings)
            self.strings.append(text)
        return idx


def _typed_bytes(arr: array) -> bytes:
    if not _LITTLE:
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _encode_column(
    name: str, ltype: str, records: Sequence, pool: _Pool
) -> list[tuple[str, str, bytes]]:
    """Encode one logical column into its ``(section, fmt, payload)``
    list (``strlist`` spans two sections)."""
    if ltype == "time":
        payload = array("q", [_to_micros(getattr(r, name)) for r in records])
        return [(name, "q", _typed_bytes(payload))]
    if ltype == "i64":
        payload = array("q", [getattr(r, name) for r in records])
        return [(name, "q", _typed_bytes(payload))]
    if ltype == "bool":
        return [(name, "B", bytes(1 if getattr(r, name) else 0 for r in records))]
    if ltype == "bool?":
        def cell(value) -> int:
            return 2 if value is None else (1 if value else 0)
        return [(name, "B", bytes(cell(getattr(r, name)) for r in records))]
    if ltype == "str":
        intern = pool.intern
        payload = array("I", [intern(getattr(r, name)) for r in records])
        return [(name, "I", _typed_bytes(payload))]
    if ltype == "str?":
        intern = pool.intern
        payload = array(
            "I",
            [
                NULL_INDEX if value is None else intern(value)
                for value in (getattr(r, name) for r in records)
            ],
        )
        return [(name, "I", _typed_bytes(payload))]
    if ltype == "strlist":
        intern = pool.intern
        offsets = array("I", [0])
        values = array("I")
        for r in records:
            for item in getattr(r, name):
                values.append(intern(item))
            offsets.append(len(values))
        return [
            (f"{name}#offsets", "I", _typed_bytes(offsets)),
            (f"{name}#values", "I", _typed_bytes(values)),
        ]
    raise StoreFormatError(f"unknown logical column type {ltype!r}")


def _ssl_derived(records: Sequence[SslRecord], pool: _Pool) -> list[tuple]:
    """The ssl-only derived columns (month label + predicate bitmap)."""
    intern = pool.intern
    months = array("I", [intern(month_key(r.ts)) for r in records])
    flags = bytearray(len(records))
    for i, r in enumerate(records):
        value = 0
        if r.established:
            value |= FLAG_ESTABLISHED
        if r.cert_chain_fuids:
            value |= FLAG_SERVER_CHAIN
        if r.client_cert_chain_fuids:
            value |= FLAG_CLIENT_CHAIN
        if r.version == "TLSv13":
            value |= FLAG_TLS13
        if r.resumed:
            value |= FLAG_RESUMED
        flags[i] = value
    return [
        ("__month__", "I", _typed_bytes(months)),
        ("__flags__", "B", bytes(flags)),
    ]


def pack_table(kind: str, records: Sequence) -> bytes:
    """Serialize records of one table kind into one ``.col`` image."""
    try:
        schema, _ = _SCHEMAS[kind]
    except KeyError:
        raise StoreFormatError(f"unknown table kind {kind!r}") from None
    pool = _Pool()
    sections: list[tuple[str, str, bytes]] = []
    columns_meta = []
    for name, ltype in schema:
        sections.extend(_encode_column(name, ltype, records, pool))
        columns_meta.append({"name": name, "type": ltype})
    if kind == "ssl":
        sections.extend(_ssl_derived(records, pool))
        columns_meta.append({"name": "__month__", "type": "str"})
        columns_meta.append({"name": "__flags__", "type": "u8"})
    # The pool is encoded last (it is only complete once every column
    # has interned its values) but its sections sit with the others.
    blob_parts: list[bytes] = []
    offsets = array("I", [0])
    total = 0
    for text in pool.strings:
        raw = text.encode("utf-8")
        blob_parts.append(raw)
        total += len(raw)
        offsets.append(total)
    sections.append(("pool#offsets", "I", _typed_bytes(offsets)))
    sections.append(("pool#blob", "B", b"".join(blob_parts)))

    header = {
        "codec": CODEC_VERSION,
        "kind": kind,
        "rows": len(records),
        "endian": "little",
        "pool_count": len(pool.strings),
        "columns": columns_meta,
        "sections": [
            {
                "name": name,
                "fmt": fmt,
                "length": len(payload),
                "crc32": zlib.crc32(payload),
            }
            for name, fmt, payload in sections
        ],
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", len(header_bytes), zlib.crc32(header_bytes))
    out += header_bytes
    out += b"\x00" * (_align8(len(out)) - len(out))
    for _, _, payload in sections:
        out += payload
        out += b"\x00" * (_align8(len(out)) - len(out))
    return bytes(out)


class ColumnTable:
    """Read side: lazy, zero-parse access to one ``.col`` image.

    ``buffer`` may be bytes or an ``mmap`` — sections are only touched
    (and only copied) when a column is requested, so opening a store
    costs one header parse regardless of table size.

    Files are **verified as served**: the header CRC is checked at
    construction (framing must be trustworthy before anything else is
    believed), and each section's CRC32 is checked the first time its
    bytes are requested — :class:`StoreIntegrityError` is raised before
    one damaged value can be decoded. Verifying lazily instead of
    whole-file-at-open keeps the integrity tax proportional to what a
    query actually reads (the column-slice queries touch a few percent
    of the file; see ``bench_store_analyze``'s checksum-overhead leg).
    Pass ``verify=False`` only when the caller verifies separately (fsck
    does, via :meth:`verify`, to collect *all* findings instead of
    failing on the first).
    """

    def __init__(self, buffer, *, verify: bool = True, name: str = "") -> None:
        self._buf = buffer
        self._name = name or "column file"
        start = len(MAGIC) + 8  # header length + header CRC words
        if len(buffer) < start:
            raise StoreFormatError(f"{self._name} truncated before header")
        if bytes(buffer[: len(MAGIC)]) != MAGIC:
            raise StoreFormatError(f"{self._name}: not a columnar-store file (bad magic)")
        header_len, header_crc = struct.unpack_from("<II", buffer, len(MAGIC))
        if len(buffer) < start + header_len:
            raise StoreFormatError(f"{self._name} truncated before header")
        header_bytes = bytes(buffer[start:start + header_len])
        if zlib.crc32(header_bytes) != header_crc:
            raise StoreIntegrityError(
                f"{self._name}: header checksum mismatch (corrupt or "
                "truncated header)",
                findings=["header"],
            )
        try:
            header = json.loads(header_bytes)
        except ValueError as exc:
            raise StoreFormatError(
                f"{self._name}: corrupt column-file header: {exc}"
            ) from None
        if header.get("codec") != CODEC_VERSION:
            raise StoreFormatError(
                f"{self._name}: unsupported codec version "
                f"{header.get('codec')!r} (this build reads "
                f"{CODEC_VERSION}); repack the store"
            )
        self.kind: str = header["kind"]
        self.rows: int = header["rows"]
        self.pool_count: int = header["pool_count"]
        self.columns: list[dict] = header["columns"]
        self._sections: dict[str, tuple[str, int, int]] = {}
        self._section_crcs: dict[str, int] = {}
        offset = _align8(start + header_len)
        for section in header["sections"]:
            length = section["length"]
            self._sections[section["name"]] = (section["fmt"], offset, length)
            if "crc32" in section:
                self._section_crcs[section["name"]] = section["crc32"]
            offset += _align8(length)
        if offset > len(buffer):
            raise StoreFormatError(f"{self._name} truncated (sections overrun)")
        self._pool: list[str] | None = None
        #: Lazy verification state: section names whose bytes have been
        #: CRC-checked against the header. Populated by the first
        #: :meth:`raw`/:meth:`typed` access of each section.
        self._lazy_verify = verify
        self._verified: set[str] = set()

    def verify(self) -> list[str]:
        """Check every section's bytes against its header CRC32.

        Returns the damaged section names (empty = intact).
        """
        view = memoryview(self._buf)
        damaged = []
        for name, (fmt, offset, length) in self._sections.items():
            expected = self._section_crcs.get(name)
            if expected is None:
                damaged.append(f"{name} (no checksum in header)")
                continue
            if zlib.crc32(view[offset:offset + length]) != expected:
                damaged.append(name)
        return damaged

    def _check_section(self, name: str, offset: int, length: int) -> None:
        """CRC one section on its first access (lazy verify-as-served)."""
        if not self._lazy_verify or name in self._verified:
            return
        expected = self._section_crcs.get(name)
        if expected is None:
            raise StoreIntegrityError(
                f"{self._name}: section {name!r} carries no checksum in "
                "the header (damaged or hand-edited header)",
                findings=[f"{name} (no checksum in header)"],
            )
        view = memoryview(self._buf)[offset:offset + length]
        if zlib.crc32(view) != expected:
            raise StoreIntegrityError(
                f"{self._name}: checksum mismatch in section {name!r}",
                findings=[name],
            )
        self._verified.add(name)

    # Raw access ---------------------------------------------------------------

    def raw(self, name: str) -> bytes:
        """One section's payload as bytes (a copy; C-speed scannable)."""
        try:
            _, offset, length = self._sections[name]
        except KeyError:
            raise StoreFormatError(f"no section {name!r} in this table") from None
        self._check_section(name, offset, length)
        return bytes(self._buf[offset:offset + length])

    def typed(self, name: str) -> array:
        """One section as a typed array (int64 / u32 / u8)."""
        try:
            fmt, offset, length = self._sections[name]
        except KeyError:
            raise StoreFormatError(f"no section {name!r} in this table") from None
        self._check_section(name, offset, length)
        arr = array(fmt)
        arr.frombytes(bytes(self._buf[offset:offset + length]))
        if not _LITTLE:
            arr.byteswap()
        return arr

    def pool(self) -> list[str]:
        """The interned string pool (decoded once, then cached)."""
        if self._pool is None:
            offsets = self.typed("pool#offsets")
            blob = self.raw("pool#blob")
            self._pool = [
                blob[offsets[i]:offsets[i + 1]].decode("utf-8")
                for i in range(self.pool_count)
            ]
        return self._pool

    # Materialization ----------------------------------------------------------

    def _decode_logical(self, name: str, ltype: str) -> list:
        strings = self.pool()
        if ltype == "time":
            return [_from_micros(m) for m in self.typed(name)]
        if ltype == "i64":
            return self.typed(name).tolist()
        if ltype == "bool":
            return [v == 1 for v in self.raw(name)]
        if ltype == "bool?":
            return [None if v == 2 else v == 1 for v in self.raw(name)]
        if ltype == "str":
            return [strings[i] for i in self.typed(name).tolist()]
        if ltype == "str?":
            return [
                None if i == NULL_INDEX else strings[i]
                for i in self.typed(name).tolist()
            ]
        if ltype == "strlist":
            offsets = self.typed(f"{name}#offsets").tolist()
            values = self.typed(f"{name}#values").tolist()
            # Vectors (EKUs, SANs, chains) repeat heavily; sharing one
            # tuple per distinct index sequence mirrors the fast TSV
            # decoder's memoized vector converter.
            memo: dict[tuple, tuple] = {}
            out = []
            append = out.append
            for k in range(self.rows):
                key = tuple(values[offsets[k]:offsets[k + 1]])
                shared = memo.get(key)
                if shared is None:
                    shared = memo[key] = tuple(strings[i] for i in key)
                append(shared)
            return out
        raise StoreFormatError(f"unknown logical column type {ltype!r}")

    def records(self) -> list:
        """Materialize the full record list (frozen dataclasses equal to
        the TSV-parsed originals, field for field)."""
        schema, factory = _SCHEMAS[self.kind]
        names = [name for name, _ in schema]
        columns = [self._decode_logical(name, ltype) for name, ltype in schema]
        new = object.__new__
        set_ = object.__setattr__
        out = []
        append = out.append
        for values in zip(*columns) if columns and self.rows else ():
            record = new(factory)
            set_(record, "__dict__", dict(zip(names, values)))
            append(record)
        return out
