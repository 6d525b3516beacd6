"""Packing: turn a rotated TSV archive into a columnar store.

``pack_archive`` parses the archive exactly once — through the same
:class:`~repro.zeek.files.TsvDirectorySource` every analysis uses — and
writes one ``.col`` file per ssl shard plus one per x509 calendar month,
committed by a ``manifest.json`` that records the store format, codec
version, the ingest-policy identity the records were parsed under, the
source archive's content fingerprint, the verbatim per-shard ingest
reports, and — since store format v2 — every file's byte length and
CRC32, so ``repro fsck`` can audit a store without trusting it.

Durability: every file goes through
:func:`repro.core.durable.durable_write` (temp file + fsync + atomic
rename + directory fsync), the manifest is written last, and the whole
pack runs under the store's exclusive :func:`~repro.store.source.store_lock`
— so a crashed or racing pack never leaves a store that *looks*
complete, and two concurrent packs serialize instead of interleaving.
``ensure_store`` is the idempotent front door: it reuses a matching
store and transparently repacks a stale, corrupt, legacy-format, or
policy-mismatched one.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.core import tracing
from repro.core.durable import durable_write, sweep_orphans
from repro.core.locks import LockTimeout
from repro.store.codec import CODEC_VERSION, StoreFormatError, month_of, pack_table
from repro.store.source import (
    LEGACY_STORE_FORMAT,
    STORE_FORMAT,
    ColumnarStoreSource,
    store_lock,
)
from repro.zeek.files import TsvDirectorySource
from repro.zeek.ingest import IngestOptions, IngestReport

__all__ = [
    "STORE_FORMAT",
    "LEGACY_STORE_FORMAT",
    "MANIFEST_NAME",
    "pack_archive",
    "ensure_store",
]

MANIFEST_NAME = "manifest.json"


def _file_meta(payload: bytes) -> dict:
    """The integrity fields the v2 manifest records per column file."""
    return {"bytes": len(payload), "crc32": zlib.crc32(payload)}


def _pack_x509(store_dir: Path, records: list, report: IngestReport) -> dict:
    """Write the x509 stream split by calendar month, so large stores
    stay granular; returns its manifest entry."""
    partitions: dict[str, list] = {}
    for record in records:
        partitions.setdefault(month_of(record.ts), []).append(record)
    files = []
    for cert_month in sorted(partitions):
        cert_file = f"x509-{cert_month}.col"
        cert_payload = pack_table("x509", partitions[cert_month])
        durable_write(store_dir / cert_file, cert_payload)
        files.append(
            {
                "month": cert_month,
                "file": cert_file,
                "rows": len(partitions[cert_month]),
                **_file_meta(cert_payload),
            }
        )
    return {"files": files, "rows": len(records), "report": report.to_dict()}


def pack_archive(
    directory: Path | str,
    store: Path | str,
    options: IngestOptions | None = None,
) -> ColumnarStoreSource:
    """Parse a rotated TSV archive once and write it as a columnar store.

    The store is self-contained: months, rows, ingest reports, file
    checksums, and the archive fingerprint all live in the manifest, so
    later analyses can run — and ``repro fsck`` can audit — from the
    store alone. The manifest is written last (durably), so a crashed
    pack never leaves a store that looks complete; the exclusive store
    lock is held for the whole pack, so concurrent packs serialize and
    readers never map a file mid-publish.
    """
    opts = IngestOptions.coerce(options)
    source = TsvDirectorySource(directory)
    store_dir = Path(store)
    store_dir.mkdir(parents=True, exist_ok=True)

    with tracing.span("store.pack"), store_lock(store_dir).exclusive(op="pack"):
        # A previously killed pack may have left orphaned temp files;
        # under the exclusive lock no other writer can be mid-write.
        sweep_orphans(store_dir)
        fingerprint = source.fingerprint()
        ssl_shards: dict[str, dict] = {}
        x509_meta: dict | None = None
        for month in source.months():
            if x509_meta is None:
                # The x509 stream (and its report) is identical for every
                # shard — it is broadcast, not partitioned — so only the
                # first month decodes it.
                shard = source.read_month(month, opts)
                ssl, ssl_report = shard.ssl, shard.ssl_report
                x509_meta = _pack_x509(store_dir, shard.x509, shard.x509_report)
            else:
                ssl, ssl_report = source.read_ssl(month, opts)
            filename = f"ssl-{month}.col"
            payload = pack_table("ssl", ssl)
            durable_write(store_dir / filename, payload)
            ssl_shards[month] = {
                "file": filename,
                "rows": len(ssl),
                "report": ssl_report.to_dict(),
                **_file_meta(payload),
            }
        if x509_meta is None:
            x509_meta = {"files": [], "rows": 0, "report": None}

        manifest = {
            "format": STORE_FORMAT,
            "codec": CODEC_VERSION,
            "source": {
                "directory": str(Path(directory).resolve()),
                "identity": source.identity(),
                "fingerprint": fingerprint,
            },
            "options": opts.identity(),
            "months": list(source.months()),
            "ssl_shards": ssl_shards,
            "x509": x509_meta,
        }
        durable_write(
            store_dir / MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
        )
    # The reader below takes its own shared lock; construct it only
    # after the exclusive scope above is released (flock treats two fds
    # of one process as independent lockers — nesting would deadlock).
    return ColumnarStoreSource(store_dir)


def ensure_store(
    directory: Path | str,
    store: Path | str,
    options: IngestOptions | None = None,
) -> ColumnarStoreSource:
    """Open a store for ``directory``, packing (or repacking) if needed.

    A store is reused only when its manifest carries the current store
    format and codec version, the same ingest-policy identity, and the
    archive's current content fingerprint — any mismatch (including a
    byte-level edit to any log file, or a legacy un-checksummed v1
    store) triggers a transparent repack. On reuse, orphaned temp files
    from a previously killed writer are swept opportunistically (only
    if the exclusive lock is free — never under a live writer).
    """
    opts = IngestOptions.coerce(options)
    store_dir = Path(store)
    if (store_dir / MANIFEST_NAME).exists():
        try:
            existing = ColumnarStoreSource(store_dir)
        except (StoreFormatError, OSError, ValueError, KeyError):
            existing = None
        if existing is not None:
            if existing.matches(
                fingerprint=TsvDirectorySource(directory).fingerprint(),
                options=opts,
            ):
                try:
                    with store_lock(store_dir).exclusive(timeout=0, op="sweep"):
                        sweep_orphans(store_dir)
                except LockTimeout:
                    pass  # a writer or reader is active; sweep next time
                return existing
    return pack_archive(directory, store_dir, opts)
