"""``ColumnarStoreSource`` — the store-backed :class:`RecordSource`.

Column files are memory-mapped, never slurped: opening a store parses
one small JSON manifest plus one JSON header per table, and bytes are
only copied when a column is actually requested. Materialized record
lists and the (shard-broadcast) x509 stream are cached per process, so
an executor worker that analyzes several months parses the certificate
stream zero times and touches each ssl column exactly once.

Integrity: every table open checks the file's size against the manifest
and the header CRC against the header bytes; each section's CRC32 is
then checked the first time that section is served (lazy, so queries
never pay to verify columns they skip). A truncated or bit-flipped file
raises :class:`~repro.store.codec.StoreIntegrityError` before one
damaged value reaches an analysis — at open for framing damage, at
first access for section damage. With ``heal=True`` (the default) a
damaged file is transparently quarantined and rebuilt from the TSV
source the manifest points at, provided that archive still fingerprints
identically; both the open path (:meth:`table`) and the consumption
path (:meth:`serve`, used by record materialization and the query
engine) retry once after healing. The healed filenames are recorded in
:attr:`healed`.

The manifest is the root of trust, and :func:`read_manifest` is the one
place it is read: the source, ``repro fsck`` and ``ensure_store``'s reuse
check all go through it. Only ``columnar-store/v2`` manifests whose every
file entry records a byte length and CRC32 are served; anything else
(a missing or torn manifest, a store from before checksums, a foreign
format) is a :class:`~repro.store.codec.StoreFormatError` that names the
repack, which ``ensure_store`` performs on its own.

Concurrency: manifest reads and table opens take the store's shared
:func:`store_lock`, so they cannot interleave with a packer's exclusive
critical section. Once a file is mapped the lock is released — the mmap
pins the inode, so a later ``os.replace`` by a repack can never tear an
open reader.

Every ``read_month`` replays the verbatim ingest reports
recorded at pack time, which is what keeps ingest-health tables and
campaign metrics byte-identical to a TSV-backed run.
"""

from __future__ import annotations

import hashlib
import json
import mmap
from pathlib import Path

from repro.core.locks import FileLock
from repro.store.codec import (
    CODEC_VERSION,
    ColumnTable,
    StoreFormatError,
    StoreIntegrityError,
)
from repro.zeek.ingest import IngestOptions, IngestReport, ShardRecords
from repro.zeek.records import SslRecord, X509Record

#: Manifest format (every file entry records its byte length and CRC32).
STORE_FORMAT = "columnar-store/v2"

#: Name of the store's commit record inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Name of the advisory lock file inside a store directory.
LOCK_NAME = ".lock"

#: Top-level manifest entries every reader of a store relies on.
_MANIFEST_KEYS = ("months", "options", "source", "ssl_shards", "x509")


def store_lock(store: Path | str) -> FileLock:
    """The advisory lock coordinating writers/readers of one store.

    Writers (``repro pack``, fsck repair) hold it exclusive; readers
    hold it shared only across manifest parse / table open. Never nest
    two acquisitions in one process — ``flock`` treats separate file
    descriptors as independent lockers.
    """
    return FileLock(Path(store) / LOCK_NAME)


def manifest_files(manifest: dict) -> dict[str, dict]:
    """Filename → manifest entry for every column file of a store: the
    ssl shards in month order, then the x509 partitions."""
    files = {entry["file"]: entry for entry in manifest["ssl_shards"].values()}
    files.update((entry["file"], entry) for entry in manifest["x509"]["files"])
    return files


def read_manifest(store: Path | str, *, op: str) -> dict:
    """Read and check a store's manifest under the shared store lock.

    Raises :class:`StoreFormatError` — naming the repack that fixes it —
    when the manifest is missing or torn, declares another format or
    codec, lacks one of its top-level entries, or lists a file without
    the byte length and CRC32 that every integrity check is anchored on.
    """
    try:
        with store_lock(store).shared(op=op):
            text = (Path(store) / MANIFEST_NAME).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StoreFormatError(
            f"no columnar store at {store} (missing {MANIFEST_NAME}); "
            "run `repro pack` or pass --store to create one"
        ) from None
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise StoreFormatError(
            f"corrupt store manifest: {exc}; the manifest is the root of "
            "trust — repack the store (`repro pack`)"
        ) from None
    declared = manifest.get("format") if isinstance(manifest, dict) else None
    if declared != STORE_FORMAT:
        raise StoreFormatError(
            f"unsupported store format {declared!r} (this build reads "
            f"{STORE_FORMAT!r}); repack the store (`repro pack`)"
        )
    if manifest.get("codec") != CODEC_VERSION:
        raise StoreFormatError(
            f"unsupported store codec {manifest.get('codec')!r} (this "
            f"build reads {CODEC_VERSION}); repack the store (`repro pack`)"
        )
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise StoreFormatError(
            f"malformed store manifest: no {', '.join(missing)}; repack "
            "the store (`repro pack`)"
        )
    try:
        files = manifest_files(manifest)
    except (AttributeError, KeyError, TypeError):
        raise StoreFormatError(
            "malformed store manifest: unreadable file list; repack the "
            "store (`repro pack`)"
        ) from None
    for filename, entry in files.items():
        if "bytes" not in entry or "crc32" not in entry:
            raise StoreFormatError(
                f"malformed store manifest: {filename} records no byte "
                "length or CRC32; repack the store (`repro pack`)"
            )
    return manifest


class ColumnarStoreSource:
    """Serve shard records straight from a packed columnar store.

    Drop-in peer of :class:`~repro.zeek.files.TsvDirectorySource`: the
    executor consumes either through the same
    :class:`~repro.zeek.ingest.RecordSource` protocol.
    Pickles by store path only (mmaps and caches are per-process).
    """

    def __init__(
        self, store: Path | str, *, verify: bool = True, heal: bool = True
    ) -> None:
        self.directory = str(store)
        self._verify = verify
        self._heal = heal
        #: Filenames transparently repaired from the TSV source, in the
        #: order the damage was hit (the degrade/quarantine vocabulary:
        #: the damaged original lands in ``<store>/quarantine/``).
        self.healed: list[str] = []
        self.manifest = read_manifest(store, op="open")
        self._months: tuple[str, ...] = tuple(self.manifest["months"])
        self._files = manifest_files(self.manifest)
        self._tables: dict[str, ColumnTable] = {}
        self._ssl_cache: dict[str, list[SslRecord]] = {}
        self._x509_cache: list[X509Record] | None = None

    # Pickling (executor workers get the path, re-open locally) ----------------

    def __getstate__(self) -> dict:
        return {
            "directory": self.directory,
            "verify": self._verify,
            "heal": self._heal,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["directory"],
            verify=state.get("verify", True),
            heal=state.get("heal", True),
        )

    # Store identity -----------------------------------------------------------

    def matches(self, fingerprint: str, options: IngestOptions) -> bool:
        """Whether this store serves exactly that archive under that
        ingest policy (the ``ensure_store`` reuse check)."""
        return (
            self.manifest["source"]["fingerprint"] == fingerprint
            and self.manifest["options"] == options.identity()
        )

    def _check_options(self, options: IngestOptions) -> None:
        packed = self.manifest["options"]
        requested = options.identity()
        if packed != requested:
            raise StoreFormatError(
                f"store was packed under {packed} but the run requests "
                f"{requested}; repack the store (or let ensure_store do it)"
            )

    # Table access (used by the query engine as well) --------------------------

    def _open_table(self, filename: str) -> ColumnTable:
        """Map and (if enabled) verify one column file, under the
        store's shared lock so a mid-pack writer is excluded."""
        path = Path(self.directory) / filename
        expected = self._files[filename]["bytes"]
        with store_lock(self.directory).shared(op=f"map {filename}"):
            try:
                actual = path.stat().st_size
            except FileNotFoundError:
                raise StoreIntegrityError(
                    f"{filename}: column file missing from store",
                    findings=["missing"],
                ) from None
            if actual != expected:
                raise StoreIntegrityError(
                    f"{filename}: size {actual} does not match the "
                    f"manifest ({expected} bytes) — truncated or "
                    "partially written",
                    findings=["size"],
                )
            with path.open("rb") as handle:
                buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            return ColumnTable(buffer, verify=self._verify, name=filename)

    def table(self, filename: str) -> ColumnTable:
        """Open (mmap + verify) one column file, cached per process.

        A verification failure quarantines and rebuilds the file from
        the manifest's TSV source when healing is enabled and the
        archive still fingerprints identically; otherwise the
        :class:`StoreIntegrityError` propagates.
        """
        cached = self._tables.get(filename)
        if cached is not None:
            return cached
        try:
            table = self._open_table(filename)
        except StoreIntegrityError:
            self._heal_or_raise(filename)
            table = self._open_table(filename)
        self._tables[filename] = table
        return table

    def _heal_or_raise(self, filename: str) -> None:
        """Quarantine + rebuild one damaged file, or re-raise."""
        if not self._heal:
            raise
        from repro.store.fsck import heal_file

        # heal_file takes the exclusive lock itself; we hold none here
        # (any shared scope has been released before damage is raised).
        if not heal_file(Path(self.directory), filename, self.manifest):
            raise
        self._tables.pop(filename, None)
        self.healed.append(filename)

    def serve(self, filename: str, consumer):
        """Run ``consumer(table)`` with heal-retry on section damage.

        Section checksums are verified lazily (on first access), so
        damage in a column can surface mid-consumption rather than at
        open. Consumers that must never observe a damaged value — record
        materialization, the query engine — go through here: on
        :class:`StoreIntegrityError` the file is quarantined, rebuilt
        from the TSV source, re-mapped, and the consumer re-run once
        against the clean bytes. ``consumer`` must be effect-free on
        failure (compute and return; no partial writes).
        """
        try:
            return consumer(self.table(filename))
        except StoreIntegrityError:
            self._heal_or_raise(filename)
            return consumer(self.table(filename))

    def ssl_table(self, month: str) -> ColumnTable:
        """The raw ssl column table for one shard month."""
        try:
            meta = self.manifest["ssl_shards"][month]
        except KeyError:
            known = ", ".join(self._months)
            raise KeyError(f"no shard for month {month!r} (have: {known})") from None
        return self.table(meta["file"])

    # RecordSource protocol ----------------------------------------------------

    def months(self) -> tuple[str, ...]:
        return self._months

    def _ssl_records(self, month: str) -> list[SslRecord]:
        cached = self._ssl_cache.get(month)
        if cached is None:
            filename = self.manifest["ssl_shards"][month]["file"]
            cached = self._ssl_cache[month] = self.serve(
                filename, lambda table: table.records()
            )
        return cached

    def _x509_records(self) -> list[X509Record]:
        if self._x509_cache is None:
            records: list[X509Record] = []
            # Partitions are stored in calendar order over a globally
            # ts-sorted stream, so concatenation *is* the sorted stream.
            for entry in self.manifest["x509"]["files"]:
                records.extend(
                    self.serve(entry["file"], lambda table: table.records())
                )
            self._x509_cache = records
        return self._x509_cache

    def _ssl_report(self, month: str) -> IngestReport:
        return IngestReport.from_dict(
            self.manifest["ssl_shards"][month]["report"]
        )

    def _x509_report(self) -> IngestReport:
        state = self.manifest["x509"]["report"]
        return IngestReport.from_dict(state) if state else IngestReport()

    def read_month(self, month: str, options: IngestOptions) -> ShardRecords:
        self._check_options(options)
        if month not in self.manifest["ssl_shards"]:
            known = ", ".join(self._months)
            raise KeyError(f"no shard for month {month!r} (have: {known})")
        return ShardRecords(
            month=month,
            ssl=list(self._ssl_records(month)),
            x509=list(self._x509_records()),
            ssl_report=self._ssl_report(month),
            x509_report=self._x509_report(),
        )

    def identity(self) -> str:
        payload = {
            "store": self.manifest["source"]["identity"],
            "fingerprint": self.manifest["source"]["fingerprint"],
            "options": self.manifest["options"],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
