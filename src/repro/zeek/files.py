"""On-disk log management: rotated, optionally gzipped Zeek logs.

Real Zeek deployments rotate logs (e.g. per day or month) and gzip the
closed files. This module writes a `ZeekLogs` capture as a rotated
directory tree and reads such a tree back — including mixed plain/gzip
content — so the pipeline can run against operator-style archives.
:class:`LogsSource` serves the same monthly shards from a capture that
is still in memory.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
from pathlib import Path
from typing import Callable, Iterable, TextIO

from repro.zeek.builder import ZeekLogs
from repro.zeek.ingest import IngestOptions, IngestReport, ShardRecords
from repro.zeek.records import SslRecord, X509Record
from repro.zeek.tsv import (
    TsvFormatError,
    iter_ssl_log_batches,
    read_ssl_log,
    read_x509_log,
    write_ssl_log,
    write_x509_log,
)


def month_key(ts) -> str:
    """The 'YYYY-MM' rotation label of a timestamp.

    The one partition rule of the pipeline: it names the rotated file a
    record is written to, the store file it is packed into, the ssl
    table's ``__month__`` column, and the Figure 1 row it counts in.
    """
    return f"{ts.year:04d}-{ts.month:02d}"


def partition_by_month(records: Iterable) -> dict[str, list]:
    """Split records by :func:`month_key`, months in calendar order and
    records in input order within each month."""
    by_month: dict[str, list] = {}
    for record in records:
        by_month.setdefault(month_key(record.ts), []).append(record)
    return {month: by_month[month] for month in sorted(by_month)}


def _open_text(path: Path, mode: str) -> TextIO:
    if path.suffix == ".gz":
        # mtime=0: the same logs compress to the same bytes, so a
        # regenerated archive keeps its source fingerprint.
        return io.TextIOWrapper(
            gzip.GzipFile(path, mode + "b", mtime=0), encoding="utf-8"
        )
    return path.open(mode, encoding="utf-8")


def write_rotated_logs(
    logs: ZeekLogs, directory: Path | str, compress: bool = True
) -> list[Path]:
    """Write ssl/x509 logs partitioned by calendar month.

    Produces ``ssl.YYYY-MM.log[.gz]`` and ``x509.YYYY-MM.log[.gz]`` files
    and returns the paths written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    suffix = ".log.gz" if compress else ".log"

    for prefix, records, writer in (
        ("ssl", logs.ssl, write_ssl_log),
        ("x509", logs.x509, write_x509_log),
    ):
        for month, month_records in partition_by_month(records).items():
            path = directory / f"{prefix}.{month}{suffix}"
            with _open_text(path, "w") as out:
                writer(month_records, out)
            written.append(path)
    return written


def _read_many(
    paths: Iterable[Path],
    reader: Callable,
    options: IngestOptions,
    report: IngestReport | None,
) -> list:
    records: list = []
    for path in sorted(paths):
        with _open_text(path, "r") as source:
            records.extend(reader(source, options.for_path(str(path), report)))
    return records


def discover_shards(directory: Path | str) -> list[tuple[str, list[Path], list[Path]]]:
    """Partition a rotated-log directory into per-month shards.

    Returns ``(month, ssl_paths, x509_paths)`` triples sorted
    chronologically. The x509 paths are the *full* set for every shard:
    fuid references may cross a month boundary (a chain logged just
    before midnight), so workers join against the whole certificate
    stream. :class:`TsvDirectorySource` decodes that stream once and
    serves every shard from the one decode.
    """
    directory = Path(directory)
    ssl_paths = list(directory.glob("ssl.*.log")) + list(directory.glob("ssl.*.log.gz"))
    x509_paths = sorted(
        list(directory.glob("x509.*.log")) + list(directory.glob("x509.*.log.gz"))
    )
    if not ssl_paths and not x509_paths:
        raise TsvFormatError(f"no rotated Zeek logs found in {directory}")
    by_month: dict[str, list[Path]] = {}
    for path in sorted(ssl_paths):
        # ssl.YYYY-MM.log[.gz] → YYYY-MM
        month = path.name.split(".")[1]
        by_month.setdefault(month, []).append(path)
    return [
        (month, paths, x509_paths) for month, paths in sorted(by_month.items())
    ]


def read_logs_directory(
    directory: Path | str, options: IngestOptions | None = None
) -> ZeekLogs:
    """Load every rotated ssl/x509 log file from a directory.

    Plain and gzipped files may be mixed. Records are returned in
    timestamp order. Raises TsvFormatError if the directory contains no
    log files at all. Under the ``skip``/``quarantine`` policies,
    malformed rows are dropped and accounted for in ``options.report``;
    pass an :class:`~repro.zeek.ingest.IngestOptions` with a report to
    collect them.
    """
    opts = IngestOptions.coerce(options)
    directory = Path(directory)
    ssl_paths = list(directory.glob("ssl.*.log")) + list(directory.glob("ssl.*.log.gz"))
    x509_paths = list(directory.glob("x509.*.log")) + list(
        directory.glob("x509.*.log.gz")
    )
    if not ssl_paths and not x509_paths:
        raise TsvFormatError(f"no rotated Zeek logs found in {directory}")
    ssl_records: list[SslRecord] = _read_many(
        ssl_paths, read_ssl_log, opts, opts.report
    )
    x509_records: list[X509Record] = _read_many(
        x509_paths, read_x509_log, opts, opts.report
    )
    ssl_records.sort(key=lambda r: r.ts)
    x509_records.sort(key=lambda r: r.ts)
    return ZeekLogs(ssl=ssl_records, x509=x509_records)


class MonthStream:
    """Streaming view of one month's shard for the pipelined loader.

    :meth:`ssl_batches` yields decoded ssl record batches as the files
    are read — a consumer on another thread can join/enrich batch *k*
    while batch *k+1* is still decoding. :meth:`read_x509` serves the
    (tiny, broadcast) certificate stream from its source, exactly like
    :meth:`TsvDirectorySource.read_month`; call it on the thread that
    owns the source. The two reports fill in as reading proceeds and
    match the serial read's reports field for field once both streams
    are drained.
    """

    def __init__(
        self,
        month: str,
        ssl_paths: Iterable[str],
        source: "TsvDirectorySource",
        options: IngestOptions,
    ) -> None:
        self.month = month
        self._ssl_paths = tuple(str(p) for p in ssl_paths)
        self._source = source
        self._options = options
        self.ssl_report = IngestReport()
        self.x509_report = IngestReport()

    def ssl_batches(self):
        """Decoded ssl batches across the month's files, in path order
        (the same order :func:`_read_many` concatenates them)."""
        for path in sorted(Path(p) for p in self._ssl_paths):
            with _open_text(path, "r") as source:
                yield from iter_ssl_log_batches(
                    source, self._options.for_path(str(path), self.ssl_report)
                )

    def read_x509(self) -> list[X509Record]:
        records, self.x509_report = self._source.read_x509(
            self.month, self._options
        )
        return records


class TsvDirectorySource:
    """:class:`~repro.zeek.ingest.RecordSource` over a rotated TSV tree.

    The reference source: every other implementation (notably the
    columnar store) is proven byte-identical against this one by the
    differential suite. Shards follow :func:`discover_shards` — one per
    calendar month, with the full x509 stream broadcast to each.

    The broadcast stream is decoded once per instance (see
    :meth:`read_x509`); each shard gets a fresh list over the same
    frozen records. The decode is kept on the instance without a lock,
    so call an instance from one thread (the pipelined loader's feeder
    thread decodes ssl only). It is not pickled: instances ship to
    executor worker processes as path tuples and each worker decodes
    for itself.
    """

    def __init__(self, directory: Path | str) -> None:
        self.directory = str(directory)
        self._shards: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = tuple(
            (month, tuple(str(p) for p in ssl_paths), tuple(str(p) for p in x509_paths))
            for month, ssl_paths, x509_paths in discover_shards(directory)
        )
        self._x509_decoded: tuple | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_x509_decoded"] = None
        return state

    @classmethod
    def from_shards(
        cls, shards: Iterable[tuple[str, Iterable[str], Iterable[str]]]
    ) -> "TsvDirectorySource":
        """Build a source from explicit ``(month, ssl_paths, x509_paths)``
        triples without touching the filesystem."""
        source = cls.__new__(cls)
        source.directory = ""
        source._shards = tuple(
            (month, tuple(str(p) for p in ssl), tuple(str(p) for p in x509))
            for month, ssl, x509 in shards
        )
        source._x509_decoded = None
        return source

    def months(self) -> tuple[str, ...]:
        return tuple(month for month, _, _ in self._shards)

    def _shard_paths(self, month: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        for shard_month, ssl_paths, x509_paths in self._shards:
            if shard_month == month:
                return ssl_paths, x509_paths
        known = ", ".join(self.months())
        raise KeyError(f"no shard for month {month!r} (have: {known})")

    def read_ssl(
        self, month: str, options: IngestOptions
    ) -> tuple[list[SslRecord], IngestReport]:
        """One shard's ts-sorted ssl records and their report: the ssl
        half of :meth:`read_month`."""
        ssl_paths, _ = self._shard_paths(month)
        ssl_report = IngestReport()
        ssl = _read_many(
            [Path(p) for p in ssl_paths], read_ssl_log, options, ssl_report
        )
        ssl.sort(key=lambda r: r.ts)
        return ssl, ssl_report

    def read_x509(
        self, month: str, options: IngestOptions
    ) -> tuple[list[X509Record], IngestReport]:
        """One shard's ts-sorted x509 records and their report.

        The first call decodes the shard's x509 files; later calls with
        the same paths and the same ``on_error``/``fast_path`` are
        served from that decode: a fresh list over the same records and
        a fresh report equal to the decode's.
        A failed decode is not kept, so a strict-mode error is raised
        again, identically, for every month.
        """
        _, x509_paths = self._shard_paths(month)
        key = (x509_paths, options.on_error, options.fast_path)
        if self._x509_decoded is None or self._x509_decoded[0] != key:
            report = IngestReport()
            records = _read_many(
                [Path(p) for p in x509_paths], read_x509_log, options, report
            )
            records.sort(key=lambda r: r.ts)
            self._x509_decoded = (key, records, report)
        _, records, report = self._x509_decoded
        shard_report = IngestReport()
        shard_report.merge(report)
        return list(records), shard_report

    def read_month(self, month: str, options: IngestOptions) -> ShardRecords:
        ssl, ssl_report = self.read_ssl(month, options)
        x509, x509_report = self.read_x509(month, options)
        return ShardRecords(
            month=month, ssl=ssl, x509=x509,
            ssl_report=ssl_report, x509_report=x509_report,
        )

    def stream_month(self, month: str, options: IngestOptions) -> MonthStream:
        """A :class:`MonthStream` over one shard — the pipelined
        counterpart of :meth:`read_month`. Sources without this method
        are loaded serially by the executor."""
        ssl_paths, _ = self._shard_paths(month)
        return MonthStream(month, ssl_paths, self, options)

    def identity(self) -> str:
        """Stable identity of the shard *layout* (months and paths)."""
        payload = [
            [month, list(ssl), list(x509)] for month, ssl, x509 in self._shards
        ]
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def fingerprint(self) -> str:
        """Content fingerprint of the archive (names, sizes, digests).

        This is what a columnar store records at pack time and checks on
        every open: any byte-level change to any log file invalidates
        the store.
        """
        entries = []
        seen: set[str] = set()
        for _, ssl_paths, x509_paths in self._shards:
            for raw in (*ssl_paths, *x509_paths):
                if raw in seen:
                    continue
                seen.add(raw)
                path = Path(raw)
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                entries.append([path.name, path.stat().st_size, digest])
        entries.sort()
        return hashlib.sha256(
            json.dumps(entries, sort_keys=True).encode("utf-8")
        ).hexdigest()


class LogsSource:
    """:class:`~repro.zeek.ingest.RecordSource` over an in-memory
    :class:`ZeekLogs` capture.

    Serves the shards :class:`TsvDirectorySource` would serve from the
    capture's rotated archive: one per :func:`partition_by_month` month,
    each with that month's ssl records and the full x509 stream, both
    ts-sorted. The caller has already ingested the records, so every
    shard's reports are empty and ``options`` is not consulted. Each
    shard gets fresh lists over the same records.
    """

    def __init__(self, logs: ZeekLogs) -> None:
        self._ssl = {
            month: sorted(records, key=lambda r: r.ts)
            for month, records in partition_by_month(logs.ssl).items()
        }
        self._x509 = sorted(logs.x509, key=lambda r: r.ts)

    def months(self) -> tuple[str, ...]:
        return tuple(self._ssl)

    def read_month(self, month: str, options: IngestOptions) -> ShardRecords:
        try:
            ssl = self._ssl[month]
        except KeyError:
            known = ", ".join(self._ssl)
            raise KeyError(f"no shard for month {month!r} (have: {known})") from None
        return ShardRecords(
            month=month, ssl=list(ssl), x509=list(self._x509),
            ssl_report=IngestReport(), x509_report=IngestReport(),
        )

    def identity(self) -> str:
        """Identity of the shard layout (months and record counts)."""
        counts = {month: len(ssl) for month, ssl in self._ssl.items()}
        counts["x509"] = len(self._x509)
        return hashlib.sha256(json.dumps(counts).encode("utf-8")).hexdigest()
