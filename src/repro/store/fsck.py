"""``repro fsck`` — audit and repair a columnar store's integrity.

The check trusts nothing in the store: the manifest must parse and
carry a known format, every column file must exist with exactly the
byte length and CRC32 the manifest recorded, and every section inside
each file must match its header checksum. Findings use the same
quarantine/degrade vocabulary as run supervision:

- ``ok``            — file verified end to end;
- ``damaged``       — checksum or size mismatch (bit rot, torn write);
- ``missing``       — manifest lists it, directory does not have it;
- ``unverifiable``  — legacy v1 file with no checksums to check;
- ``repaired``      — damaged file quarantined and rebuilt from the
  TSV source, byte-identical to what the manifest promised.

Repair is conservative: the damaged original is *moved* to
``<store>/quarantine/`` (never deleted — it is evidence), the
replacement is rebuilt from the TSV archive the manifest points at,
and the rebuild is accepted only if the archive still fingerprints
identically **and** the rebuilt bytes reproduce the manifest's recorded
CRC32 exactly. Packing is deterministic, so a clean rebuild is
byte-identical to the original pre-damage file — which is what lets the
differential suite assert a repaired store's full 24-table campaign
output equals an uncorrupted run's.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.durable import durable_write
from repro.store.codec import (
    ColumnTable,
    StoreFormatError,
    month_of,
    pack_table,
)
from repro.store.source import STORE_FORMAT, store_lock
from repro.zeek.ingest import IngestOptions

#: Subdirectory damaged files are moved into (never deleted).
QUARANTINE_DIR = "quarantine"


@dataclass(frozen=True)
class FsckFinding:
    """One file's verdict."""

    file: str
    status: str  # ok | damaged | missing | unverifiable | repaired
    detail: str = ""


@dataclass
class FsckResult:
    """Everything one fsck pass determined (and did)."""

    store: str
    findings: list[FsckFinding] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    #: Files that could not be repaired (no source, changed source,
    #: or a rebuild that failed to reproduce the manifest checksum).
    unrepaired: list[str] = field(default_factory=list)

    @property
    def damaged(self) -> list[FsckFinding]:
        return [f for f in self.findings if f.status in ("damaged", "missing")]

    @property
    def repaired(self) -> list[str]:
        return [f.file for f in self.findings if f.status == "repaired"]

    @property
    def unverifiable(self) -> list[FsckFinding]:
        return [f for f in self.findings if f.status == "unverifiable"]

    @property
    def ok(self) -> bool:
        """No unresolved damage (repaired files count as resolved)."""
        return not self.damaged

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.status] = out.get(finding.status, 0) + 1
        return out


def _manifest_files(manifest: dict) -> list[str]:
    files = [entry["file"] for entry in manifest["ssl_shards"].values()]
    files.extend(entry["file"] for entry in manifest["x509"]["files"])
    return files


def _file_meta(manifest: dict, filename: str) -> dict | None:
    for entry in manifest["ssl_shards"].values():
        if entry["file"] == filename:
            return entry
    for entry in manifest["x509"]["files"]:
        if entry["file"] == filename:
            return entry
    return None


def _check_file(store_dir: Path, filename: str, meta: dict) -> FsckFinding:
    """Verify one column file bottom to top: existence, manifest size
    and CRC, then every section against the file's own header."""
    path = store_dir / filename
    if not path.exists():
        return FsckFinding(filename, "missing", "listed in manifest, not on disk")
    if "crc32" not in meta:
        return FsckFinding(
            filename, "unverifiable", "legacy manifest records no checksum"
        )
    blob = path.read_bytes()
    if len(blob) != meta["bytes"]:
        return FsckFinding(
            filename,
            "damaged",
            f"size {len(blob)} != manifest {meta['bytes']} (truncated/torn)",
        )
    if zlib.crc32(blob) != meta["crc32"]:
        # Narrow it down with the in-file section checksums so the
        # operator sees *which column* rotted, when the header survives.
        try:
            sections = ColumnTable(blob, verify=False, name=filename).verify()
        except StoreFormatError as exc:
            return FsckFinding(filename, "damaged", str(exc))
        detail = (
            f"checksum mismatch in section(s): {', '.join(sections[:4])}"
            if sections
            else "file checksum mismatch (padding or header bytes)"
        )
        return FsckFinding(filename, "damaged", detail)
    try:
        bad_sections = ColumnTable(blob, verify=False, name=filename).verify()
    except StoreFormatError as exc:
        return FsckFinding(filename, "damaged", str(exc))
    if bad_sections:
        return FsckFinding(
            filename,
            "damaged",
            f"checksum mismatch in section(s): {', '.join(bad_sections[:4])}",
        )
    return FsckFinding(filename, "ok")


def _rebuild_payload(
    manifest: dict, filename: str, source_dir: Path
) -> bytes | None:
    """Re-pack one column file's bytes from the TSV archive, or None
    when the archive no longer matches the manifest's fingerprint."""
    from repro.zeek.files import TsvDirectorySource

    if not source_dir.is_dir():
        return None
    source = TsvDirectorySource(source_dir)
    if source.fingerprint() != manifest["source"]["fingerprint"]:
        return None
    opts = IngestOptions(on_error=manifest["options"]["on_error"])
    stem = filename[: -len(".col")] if filename.endswith(".col") else filename
    if stem.startswith("ssl-"):
        ssl, _ = source.read_ssl(stem[len("ssl-"):], opts)
        return pack_table("ssl", ssl)
    if stem.startswith("x509-"):
        cert_month = stem[len("x509-"):]
        months = manifest["months"]
        if not months:
            return None
        # The x509 stream is shard-broadcast: any month's read carries
        # the full certificate stream, partitioned here exactly as
        # pack_archive partitions it.
        x509, _ = source.read_x509(months[0], opts)
        partition = [r for r in x509 if month_of(r.ts) == cert_month]
        return pack_table("x509", partition)
    return None


def quarantine_file(store_dir: Path, filename: str) -> Path:
    """Move a damaged file into ``<store>/quarantine/`` (serial-suffixed
    if a previous incident already parked one). Caller must hold the
    store's exclusive lock."""
    quarantine = store_dir / QUARANTINE_DIR
    quarantine.mkdir(exist_ok=True)
    target = quarantine / filename
    serial = 1
    while target.exists():
        serial += 1
        target = quarantine / f"{filename}.{serial}"
    (store_dir / filename).replace(target)
    return target


def heal_file(
    store_dir: Path,
    filename: str,
    manifest: dict,
    *,
    source_dir: Path | str | None = None,
) -> bool:
    """Quarantine ``filename`` and rebuild it from the TSV source.

    Returns True only when the rebuilt bytes reproduce the manifest's
    recorded length and CRC32 exactly — a rebuild from a drifted
    archive is rejected rather than silently substituted. Takes the
    store's exclusive lock for the quarantine+publish step; the caller
    must not already hold any lock on this store.
    """
    store_dir = Path(store_dir)
    meta = _file_meta(manifest, filename)
    if meta is None or "crc32" not in meta:
        return False
    src = Path(source_dir) if source_dir else Path(
        manifest.get("source", {}).get("directory", "")
    )
    if not str(src):
        return False
    payload = _rebuild_payload(manifest, filename, src)
    if payload is None:
        return False
    if len(payload) != meta["bytes"] or zlib.crc32(payload) != meta["crc32"]:
        return False
    with store_lock(store_dir).exclusive(op=f"heal {filename}"):
        if (store_dir / filename).exists():
            quarantine_file(store_dir, filename)
        durable_write(store_dir / filename, payload)
    return True


def fsck(
    store: Path | str,
    *,
    source: Path | str | None = None,
    repair: bool = False,
) -> FsckResult:
    """Audit ``store``; with ``repair=True`` also quarantine and rebuild
    whatever can be rebuilt from the TSV archive.

    ``source`` overrides the archive directory recorded in the manifest
    (for stores whose archive has moved). Raises
    :class:`StoreFormatError` when the manifest itself is unreadable —
    there is nothing to audit against; repack instead.
    """
    store_dir = Path(store)
    manifest_path = store_dir / "manifest.json"
    try:
        with store_lock(store_dir).shared(op="fsck"):
            manifest_text = manifest_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StoreFormatError(
            f"no columnar store at {store} (missing manifest.json)"
        ) from None
    try:
        manifest = json.loads(manifest_text)
    except ValueError as exc:
        raise StoreFormatError(
            f"corrupt store manifest: {exc}; the manifest is the root of "
            "trust — repack the store (`repro pack`)"
        ) from None

    result = FsckResult(store=str(store_dir))
    legacy = manifest.get("format") != STORE_FORMAT
    with store_lock(store_dir).shared(op="fsck-scan"):
        for filename in _manifest_files(manifest):
            meta = _file_meta(manifest, filename) or {}
            if legacy:
                finding = (
                    FsckFinding(filename, "missing", "listed in manifest, not on disk")
                    if not (store_dir / filename).exists()
                    else FsckFinding(
                        filename, "unverifiable",
                        "legacy v1 store has no checksums; repack to upgrade",
                    )
                )
            else:
                finding = _check_file(store_dir, filename, meta)
            result.findings.append(finding)

    if repair:
        repaired_findings: list[FsckFinding] = []
        for finding in result.findings:
            if finding.status not in ("damaged", "missing"):
                repaired_findings.append(finding)
                continue
            was_present = (store_dir / finding.file).exists()
            if heal_file(
                store_dir, finding.file, manifest, source_dir=source
            ):
                if was_present:
                    result.quarantined.append(finding.file)
                repaired_findings.append(
                    FsckFinding(
                        finding.file, "repaired",
                        f"was: {finding.detail}" if finding.detail else "",
                    )
                )
            else:
                result.unrepaired.append(finding.file)
                repaired_findings.append(finding)
        result.findings = repaired_findings
    return result
