"""Packing: turn a rotated TSV archive into a columnar store.

``pack_archive`` parses the archive exactly once — through the same
:class:`~repro.zeek.files.TsvDirectorySource` every analysis uses — and
writes one ``.col`` file per ssl shard plus one per x509 calendar month,
committed by a ``manifest.json`` that records the store format, codec
version, the ingest-policy identity the records were parsed under, the
source archive's content fingerprint, the verbatim per-shard ingest
reports, and every file's byte length and CRC32, so ``repro fsck`` can
audit a store without trusting it.

Durability: every file goes through
:func:`repro.core.durable.durable_write` (temp file + fsync + atomic
rename + directory fsync), the manifest is written last, and the whole
pack runs under the store's exclusive :func:`~repro.store.source.store_lock`
— so a crashed or racing pack never leaves a store that *looks*
complete, and two concurrent packs serialize instead of interleaving.
``ensure_store`` is the idempotent front door: it reuses a matching
store and transparently repacks a stale, corrupt, foreign-format (a
store from before checksums included), or policy-mismatched one.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.core import tracing
from repro.core.durable import durable_write, sweep_orphans
from repro.core.locks import LockTimeout
from repro.store.codec import CODEC_VERSION, StoreFormatError, pack_table
from repro.store.source import (
    MANIFEST_NAME,
    STORE_FORMAT,
    ColumnarStoreSource,
    store_lock,
)
from repro.zeek.files import TsvDirectorySource, partition_by_month
from repro.zeek.ingest import IngestOptions, IngestReport

__all__ = [
    "STORE_FORMAT",
    "MANIFEST_NAME",
    "pack_archive",
    "ensure_store",
]


def _file_meta(payload: bytes) -> dict:
    """The integrity fields the manifest records per column file."""
    return {"bytes": len(payload), "crc32": zlib.crc32(payload)}


def _pack_x509(store_dir: Path, records: list, report: IngestReport) -> dict:
    """Write the x509 stream split by calendar month, so large stores
    stay granular; returns its manifest entry."""
    files = []
    for cert_month, partition in partition_by_month(records).items():
        cert_file = f"x509-{cert_month}.col"
        cert_payload = pack_table("x509", partition)
        durable_write(store_dir / cert_file, cert_payload)
        files.append(
            {
                "month": cert_month,
                "file": cert_file,
                "rows": len(partition),
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
            shard = source.read_month(month, opts)
            if x509_meta is None:
                # The x509 stream (and its report) is identical for every
                # shard — broadcast, not partitioned, and decoded once by
                # the source — so the first month's copy is packed.
                x509_meta = _pack_x509(store_dir, shard.x509, shard.x509_report)
            filename = f"ssl-{month}.col"
            payload = pack_table("ssl", shard.ssl)
            durable_write(store_dir / filename, payload)
            ssl_shards[month] = {
                "file": filename,
                "rows": len(shard.ssl),
                "report": shard.ssl_report.to_dict(),
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

    A store is reused only when :func:`~repro.store.source.read_manifest`
    accepts its manifest (current store format and codec, every file's
    length and CRC32 recorded) and the manifest carries the same
    ingest-policy identity and the archive's current content
    fingerprint — any mismatch (including a byte-level edit to any log
    file, or a store from before checksums) triggers a transparent
    repack. On reuse, orphaned temp files from a previously killed
    writer are swept opportunistically (only if the exclusive lock is
    free — never under a live writer).
    """
    opts = IngestOptions.coerce(options)
    store_dir = Path(store)
    if (store_dir / MANIFEST_NAME).exists():
        try:
            existing = ColumnarStoreSource(store_dir)
        except (StoreFormatError, OSError, ValueError):
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
