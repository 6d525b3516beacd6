"""On-disk log management: rotated, optionally gzipped Zeek logs.

Real Zeek deployments rotate logs (e.g. per day or month) and gzip the
closed files. This module writes a `ZeekLogs` capture as a rotated
directory tree and reads such a tree back — including mixed plain/gzip
content — so the pipeline can run against operator-style archives.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
from pathlib import Path
from typing import Callable, Iterable, TextIO

from repro.zeek.builder import ZeekLogs
from repro.zeek.ingest import (
    _UNSET_ARG,
    IngestOptions,
    IngestReport,
    ShardRecords,
    resolve_ingest_options,
)
from repro.zeek.records import SslRecord, X509Record
from repro.zeek.tsv import (
    TsvFormatError,
    iter_ssl_log_batches,
    read_ssl_log,
    read_x509_log,
    write_ssl_log,
    write_x509_log,
)


def _month_key(ts) -> str:
    return f"{ts.year:04d}-{ts.month:02d}"


def _open_text(path: Path, mode: str) -> TextIO:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
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

    def partition(records):
        by_month: dict[str, list] = {}
        for record in records:
            by_month.setdefault(_month_key(record.ts), []).append(record)
        return by_month

    for prefix, records, writer in (
        ("ssl", logs.ssl, write_ssl_log),
        ("x509", logs.x509, write_x509_log),
    ):
        for month, month_records in sorted(partition(records).items()):
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
    stream — it is tiny next to ssl.log and deduplicated on load.
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
    directory: Path | str,
    options: IngestOptions | None = None,
    *,
    on_error: object = _UNSET_ARG,
    report: object = _UNSET_ARG,
    fast_path: object = _UNSET_ARG,
) -> ZeekLogs:
    """Load every rotated ssl/x509 log file from a directory.

    Plain and gzipped files may be mixed. Records are returned in
    timestamp order. Raises TsvFormatError if the directory contains no
    log files at all. Under the ``skip``/``quarantine`` policies,
    malformed rows are dropped and accounted for in ``options.report``;
    pass an :class:`~repro.zeek.ingest.IngestOptions` with a report to
    collect them. The ``on_error``/``report``/``fast_path`` keywords are
    deprecated shims for the pre-options signature.
    """
    opts = resolve_ingest_options(
        options, caller="read_logs_directory",
        on_error=on_error, report=report, fast_path=fast_path,
    )
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
    while batch *k+1* is still decoding. :meth:`read_x509` loads the
    (tiny, broadcast) certificate stream whole, ts-sorted exactly like
    :meth:`TsvDirectorySource.read_month`. The two reports fill in as
    reading proceeds and match the serial read's reports field for
    field once both streams are drained.
    """

    def __init__(
        self,
        month: str,
        ssl_paths: Iterable[str],
        x509_paths: Iterable[str],
        options: IngestOptions,
    ) -> None:
        self.month = month
        self._ssl_paths = tuple(str(p) for p in ssl_paths)
        self._x509_paths = tuple(str(p) for p in x509_paths)
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
        records = _read_many(
            [Path(p) for p in self._x509_paths],
            read_x509_log, self._options, self.x509_report,
        )
        records.sort(key=lambda r: r.ts)
        return records


class TsvDirectorySource:
    """:class:`~repro.zeek.ingest.RecordSource` over a rotated TSV tree.

    The reference source: every other implementation (notably the
    columnar store) is proven byte-identical against this one by the
    differential suite. Shards follow :func:`discover_shards` — one per
    calendar month, with the full x509 stream broadcast to each.

    Instances hold only path tuples, so they pickle cheaply into
    executor worker processes.
    """

    def __init__(self, directory: Path | str) -> None:
        self.directory = str(directory)
        self._shards: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = tuple(
            (month, tuple(str(p) for p in ssl_paths), tuple(str(p) for p in x509_paths))
            for month, ssl_paths, x509_paths in discover_shards(directory)
        )

    @classmethod
    def from_shards(
        cls, shards: Iterable[tuple[str, Iterable[str], Iterable[str]]]
    ) -> "TsvDirectorySource":
        """Build a source from explicit ``(month, ssl_paths, x509_paths)``
        triples (the legacy :class:`~repro.core.parallel.ShardSpec` shape)
        without touching the filesystem."""
        source = cls.__new__(cls)
        source.directory = ""
        source._shards = tuple(
            (month, tuple(str(p) for p in ssl), tuple(str(p) for p in x509))
            for month, ssl, x509 in shards
        )
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
        """One shard's ssl records and their report: :meth:`read_month`
        without decoding the broadcast x509 stream again."""
        ssl_paths, _ = self._shard_paths(month)
        ssl_report = IngestReport()
        ssl = _read_many(
            [Path(p) for p in ssl_paths], read_ssl_log, options, ssl_report
        )
        ssl.sort(key=lambda r: r.ts)
        return ssl, ssl_report

    def read_month(self, month: str, options: IngestOptions) -> ShardRecords:
        ssl, ssl_report = self.read_ssl(month, options)
        _, x509_paths = self._shard_paths(month)
        x509_report = IngestReport()
        x509 = _read_many(
            [Path(p) for p in x509_paths], read_x509_log, options, x509_report
        )
        x509.sort(key=lambda r: r.ts)
        return ShardRecords(
            month=month, ssl=ssl, x509=x509,
            ssl_report=ssl_report, x509_report=x509_report,
        )

    def stream_month(self, month: str, options: IngestOptions) -> MonthStream:
        """A :class:`MonthStream` over one shard — the pipelined
        counterpart of :meth:`read_month`. Sources without this method
        are loaded serially by the executor."""
        ssl_paths, x509_paths = self._shard_paths(month)
        return MonthStream(month, ssl_paths, x509_paths, options)

    def read_all(
        self, options: IngestOptions
    ) -> tuple[list[SslRecord], list[X509Record], IngestReport]:
        report = options.report if options.report is not None else IngestReport()
        ssl_paths = [Path(p) for _, paths, _ in self._shards for p in paths]
        # x509 paths are broadcast per shard; deduplicate for the
        # whole-capture read (every shard carries the full set).
        x509_paths = sorted(
            {p for _, _, paths in self._shards for p in paths}
        )
        ssl = _read_many(ssl_paths, read_ssl_log, options, report)
        x509 = _read_many([Path(p) for p in x509_paths], read_x509_log, options, report)
        ssl.sort(key=lambda r: r.ts)
        x509.sort(key=lambda r: r.ts)
        return ssl, x509, report

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
