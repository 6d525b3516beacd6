"""Parse-once columnar record store.

A rotated Zeek TSV archive is parsed once (``repro pack`` or
``--store``) into per-month column files — struct-packed fixed-width
columns over an interned string pool — committed by a JSON manifest
carrying the schema/codec version, row counts, the source archive's
content fingerprint, the ingest-policy identity, and the verbatim
per-shard ingest reports. Every later analysis memory-maps the columns
instead of re-parsing TSV, through the same
:class:`~repro.zeek.ingest.RecordSource` protocol the TSV reader
implements — results are byte-identical by construction and proven so
by the differential suite. See DESIGN.md §13.

The store has one file format (codec 2, magic ``RPCOL2``) and one
manifest format (``columnar-store/v2``): every column file carries a
header CRC and per-section CRC32 checksums (verified as served), the
manifest records every file's length and CRC32 and is read in one place
(:func:`~repro.store.source.read_manifest`), all writes are
crash-consistent via :mod:`repro.core.durable`, concurrent access is
coordinated by an advisory :func:`~repro.store.source.store_lock`, and
``repro fsck`` audits/repairs a store from its TSV source. A store in
any other format is repacked from its archive, never read. See
DESIGN.md §14.
"""

from repro.store.codec import (
    CODEC_VERSION,
    FLAG_CLIENT_CHAIN,
    FLAG_ESTABLISHED,
    FLAG_SERVER_CHAIN,
    FLAG_TLS13,
    FLAG_RESUMED,
    MAGIC,
    NULL_INDEX,
    ColumnTable,
    StoreFormatError,
    StoreIntegrityError,
    pack_table,
)
from repro.store.fsck import FsckFinding, FsckResult, fsck, heal_file
from repro.store.pack import (
    MANIFEST_NAME,
    STORE_FORMAT,
    ensure_store,
    pack_archive,
)
from repro.store.query import StoreQueryEngine
from repro.store.source import ColumnarStoreSource, store_lock

__all__ = [
    "CODEC_VERSION",
    "FLAG_CLIENT_CHAIN",
    "FLAG_ESTABLISHED",
    "FLAG_SERVER_CHAIN",
    "FLAG_TLS13",
    "FLAG_RESUMED",
    "MAGIC",
    "MANIFEST_NAME",
    "NULL_INDEX",
    "STORE_FORMAT",
    "ColumnTable",
    "ColumnarStoreSource",
    "FsckFinding",
    "FsckResult",
    "StoreFormatError",
    "StoreIntegrityError",
    "StoreQueryEngine",
    "ensure_store",
    "fsck",
    "heal_file",
    "pack_archive",
    "pack_table",
    "store_lock",
]
