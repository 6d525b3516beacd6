"""Incremental (bounded-memory) analysis of log streams.

The batch pipeline loads a whole campaign; a 23-month border capture
does not fit in memory. `StreamingAnalyzer` consumes ssl/x509 records
incrementally — e.g. one rotated monthly file at a time — and maintains
the running aggregates for the headline results (Figure 1's series,
Table 1's unique-certificate statistics, and the §3.3 TLS 1.3 blind
spot) with memory proportional to the number of *unique certificates*,
not connections. The aggregates are the same mergeable state types the
analysis registry's partials use
(:class:`~repro.core.prevalence.MonthlyShareState`,
:class:`~repro.core.prevalence.CertUsageState`,
:class:`~repro.core.tuples.Tls13State`), so streaming, sequential
batch, and sharded-parallel runs provably agree.

The analyzer checkpoints: `to_snapshot()` captures the complete running
state as a JSON-serializable dict and `from_snapshot()` restores it, so
a killed 23-month ingestion resumes from the last completed rotation and
provably matches an uninterrupted run. The fuid→fingerprint map can be
bounded (`max_fuid_map`) with FIFO eviction for adversarially long
streams; evictions and dangling fuid references are both counted.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Iterable

from repro.core import metrics, tracing
from repro.core.enrich import new_fact_cache
from repro.core.prevalence import (
    CertStatsRow,
    CertUsageState,
    MonthlyShare,
    MonthlyShareState,
    month_label,
)
from repro.core.tuples import Tls13Blindspot, Tls13State
from repro.trust import TrustBundle
from repro.zeek import (
    FastPath,
    SslRecord,
    X509Record,
    read_x509_log,
    x509_log_to_string,
)
from repro.zeek.ingest import IngestOptions

#: Snapshot schema tag; bump on incompatible layout changes.
SNAPSHOT_FORMAT = "streaming-analyzer/v2"


def atomic_write_json(path: Path | str, payload: dict) -> Path:
    """Write ``payload`` as JSON, durably and atomically.

    Delegates to :func:`repro.core.durable.durable_write_json` (temp
    file + fsync + atomic rename + directory fsync); an existing file
    is retained as ``<path>.prev`` first. A crash at any point leaves
    either the new document or the previous good one loadable — never a
    torn or empty rename target — and the chaos suite drives every
    crash point of the sequence through the fault-injection shim.
    """
    from repro.core.durable import durable_write_json

    return durable_write_json(path, payload, keep_prev=True)


def load_checkpoint_json(path: Path | str) -> tuple[dict, bool]:
    """Load a checkpoint document with last-good fallback.

    Returns ``(document, used_prev)``: if the primary file is missing,
    corrupt, or truncated, the retained ``<path>.prev`` copy is tried;
    only when neither yields valid JSON does the primary's error
    propagate.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8")), False
    except (OSError, ValueError, UnicodeDecodeError) as primary_error:
        prev = path.with_suffix(path.suffix + ".prev")
        try:
            return json.loads(prev.read_text(encoding="utf-8")), True
        except (OSError, ValueError, UnicodeDecodeError):
            raise primary_error from None


class StreamingAnalyzer:
    """Consumes log records incrementally; query aggregates at any point.

    x509 records must be fed before (or together with) the ssl records
    that reference them — which is how Zeek writes its logs.

    ``max_fuid_map`` bounds the fuid→fingerprint map (None = unbounded);
    when full, the oldest entries are evicted FIFO and any later ssl
    reference to an evicted fuid counts as ``dropped_dangling_fuid``.

    ``options.fast_path`` controls the per-certificate fact cache
    (results are identical either way; the cache only skips recomputing
    the public-CA predicate for fingerprints already seen). Its contents
    and stats ride along in snapshots, so a resumed run's cache
    behaviour — and its ``streaming.certfacts.*`` counters — match an
    uninterrupted run's.
    """

    def __init__(
        self,
        bundle: TrustBundle,
        *,
        options: IngestOptions | None = None,
        max_fuid_map: int | None = None,
        keep_records: bool = False,
    ) -> None:
        opts = IngestOptions.coerce(options)
        if max_fuid_map is not None and max_fuid_map <= 0:
            raise ValueError("max_fuid_map must be positive (or None)")
        self.bundle = bundle
        self.options = opts
        self.max_fuid_map = max_fuid_map
        self.fast_path = opts.fast_path
        #: When set, the full x509 record (not just the fingerprint) is
        #: retained per live fuid — same last-wins/eviction lifecycle as
        #: the fuid map — so a caller can rebuild connection views
        #: (`x509_for_fuid`). Used by the live-tail engine.
        self.keep_records = keep_records
        self._fuid_records: dict[str, X509Record] = {}
        self._fact_cache = (
            new_fact_cache(bundle) if self.fast_path.enabled else None
        )
        #: Streaming counters/timers; checkpointed with the snapshot so
        #: a resumed run's metrics match an uninterrupted run's.
        self.metrics = metrics.MetricsRegistry()
        self._fuid_to_fp: dict[str, str] = {}
        self._usage = CertUsageState()
        self._monthly = MonthlyShareState()
        self._tls13 = Tls13State()
        self.connections_seen = 0
        self.dropped_unestablished = 0
        #: ssl chain references whose fuid had no (surviving) x509 row.
        self.dropped_dangling_fuid = 0
        self.fuid_evictions = 0

    # Feeding -------------------------------------------------------------------

    def add_x509(self, records: Iterable[X509Record]) -> None:
        fed = 0
        for record in records:
            fed += 1
            if record.fuid in self._fuid_to_fp:
                # Refresh recency so re-announced fuids survive eviction.
                del self._fuid_to_fp[record.fuid]
                self._fuid_records.pop(record.fuid, None)
            self._fuid_to_fp[record.fuid] = record.fingerprint
            if self.keep_records:
                self._fuid_records[record.fuid] = record
            if self._fact_cache is not None:
                public = self._fact_cache.get(
                    record.fingerprint, record
                ).is_public
            else:
                public = self.bundle.is_public(record)
            self._usage.ensure(record.fingerprint, public)
            if (
                self.max_fuid_map is not None
                and len(self._fuid_to_fp) > self.max_fuid_map
            ):
                oldest = next(iter(self._fuid_to_fp))
                del self._fuid_to_fp[oldest]
                self._fuid_records.pop(oldest, None)
                self.fuid_evictions += 1
        self.metrics.inc("streaming.x509_records", fed)

    def add_ssl(self, records: Iterable[SslRecord]) -> None:
        fed = 0
        for record in records:
            fed += 1
            if not record.established:
                self.dropped_unestablished += 1
                continue
            self.connections_seen += 1
            mutual = record.is_mutual
            self._monthly.observe(month_label(record.ts), mutual)
            self._tls13.observe(record)
            self._observe_leaf(record.server_leaf_fuid, "server", mutual)
            self._observe_leaf(record.client_leaf_fuid, "client", mutual)
        self.metrics.inc("streaming.ssl_records", fed)

    def add_month(
        self, ssl: Iterable[SslRecord], x509: Iterable[X509Record]
    ) -> None:
        """Feed one rotation window (x509 first, as Zeek ordering allows)."""
        self.add_x509(x509)
        self.add_ssl(ssl)

    def x509_for_fuid(self, fuid: str | None) -> X509Record | None:
        """The retained x509 record for a live fuid (``keep_records``
        mode only; returns None for unknown/evicted fuids)."""
        if fuid is None:
            return None
        return self._fuid_records.get(fuid)

    def _observe_leaf(self, fuid: str | None, role: str, mutual: bool) -> None:
        if fuid is None:
            return
        fingerprint = self._fuid_to_fp.get(fuid)
        if fingerprint is None:
            self.dropped_dangling_fuid += 1
            return
        # The fingerprint was ensured (with its public flag) in add_x509;
        # the flag here only matters for never-before-seen certificates.
        self._usage.observe(fingerprint, False, role, mutual)

    # Checkpointing -------------------------------------------------------------

    def _sync_cache_metrics(self) -> None:
        """Mirror the fact cache's running stats into the metrics
        registry. Absolute overwrite (not ``inc``): the stats object is
        cumulative, so repeated syncs must not double-count."""
        if self._fact_cache is None:
            return
        stats = self._fact_cache.stats
        self.metrics.counters["streaming.certfacts.hits"] = stats.hits
        self.metrics.counters["streaming.certfacts.misses"] = stats.misses
        self.metrics.counters["streaming.certfacts.evictions"] = stats.evictions

    def to_snapshot(self) -> dict:
        """The complete running state as a JSON-serializable dict.

        The running aggregates are embedded as registry-partial state
        dicts under ``"partials"``, keyed by analysis name. Dict
        insertion order (which drives fuid eviction) survives the JSON
        round trip, so a resumed run is byte-identical to an
        uninterrupted one. The fact cache ships under ``"certfacts"``
        (``None`` when the fast path is off); older snapshots without
        the key restore to a cold cache — still identical results, the
        first post-resume occurrence of each certificate just recomputes.
        """
        self._sync_cache_metrics()
        snapshot = {
            "format": SNAPSHOT_FORMAT,
            "max_fuid_map": self.max_fuid_map,
            "fuid_to_fp": dict(self._fuid_to_fp),
            "certfacts": (
                self._fact_cache.state_dict()
                if self._fact_cache is not None else None
            ),
            "partials": {
                "figure1": self._monthly.state_dict(),
                "table1": self._usage.state_dict(),
                "tls13": self._tls13.state_dict(),
            },
            "connections_seen": self.connections_seen,
            "dropped_unestablished": self.dropped_unestablished,
            "dropped_dangling_fuid": self.dropped_dangling_fuid,
            "fuid_evictions": self.fuid_evictions,
            "metrics": self.metrics.state_dict(),
        }
        if self.keep_records:
            # Serialized as TSV text (the canonical, proven round-trip
            # format) rather than a parallel JSON schema; insertion
            # order — which mirrors the fuid map's — survives.
            snapshot["x509_records"] = x509_log_to_string(
                self._fuid_records.values()
            )
        return snapshot

    @classmethod
    def from_snapshot(cls, bundle: TrustBundle, snapshot: dict) -> "StreamingAnalyzer":
        """Restore an analyzer from `to_snapshot()` output."""
        found = snapshot.get("format")
        if found != SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported snapshot format {found!r} "
                f"(expected {SNAPSHOT_FORMAT!r})"
            )
        # An explicit null under "certfacts" means the run had the fast
        # path off; a missing key (older snapshot) defaults to on with a
        # cold cache — either way results are unchanged.
        certfacts = snapshot.get("certfacts")
        fast_path = (
            FastPath.OFF
            if "certfacts" in snapshot and certfacts is None
            else FastPath.AUTO
        )
        analyzer = cls(
            bundle,
            options=IngestOptions(fast_path=fast_path),
            max_fuid_map=snapshot.get("max_fuid_map"),
        )
        if certfacts is not None and analyzer._fact_cache is not None:
            analyzer._fact_cache.load_state(certfacts)
        analyzer._fuid_to_fp = dict(snapshot["fuid_to_fp"])
        partials = snapshot["partials"]
        analyzer._usage = CertUsageState.from_state(partials["table1"])
        analyzer._monthly = MonthlyShareState.from_state(partials["figure1"])
        analyzer._tls13 = Tls13State.from_state(partials["tls13"])
        analyzer.connections_seen = snapshot["connections_seen"]
        analyzer.dropped_unestablished = snapshot["dropped_unestablished"]
        analyzer.dropped_dangling_fuid = snapshot.get("dropped_dangling_fuid", 0)
        analyzer.fuid_evictions = snapshot.get("fuid_evictions", 0)
        x509_text = snapshot.get("x509_records")
        if x509_text is not None:
            analyzer.keep_records = True
            analyzer._fuid_records = {
                record.fuid: record
                for record in read_x509_log(io.StringIO(x509_text))
            }
        # Older snapshots carry no metrics; merge_state tolerates None.
        analyzer.metrics.merge_state(snapshot.get("metrics"))
        return analyzer

    def write_checkpoint(
        self, path: Path | str, *, extra: dict | None = None
    ) -> Path:
        """Persist the snapshot as durable JSON (see `atomic_write_json`:
        fsync before rename, last-good ``.prev`` retained, temp file
        cleaned up on failure). ``extra`` merges additional top-level
        keys into the document — e.g. the live-tail daemon's cursor
        state — which `from_snapshot` ignores.
        """
        path = Path(path)
        self.metrics.inc("streaming.checkpoint_writes")
        with metrics.scoped(self.metrics), tracing.span("streaming.checkpoint"):
            document = self.to_snapshot()
            if extra:
                document.update(extra)
            atomic_write_json(path, document)
        return path

    @classmethod
    def from_checkpoint(
        cls, bundle: TrustBundle, path: Path | str
    ) -> "StreamingAnalyzer":
        """Restore from a checkpoint file.

        A corrupt or truncated primary (torn write under a crash) falls
        back to the retained last-good ``<path>.prev`` document; the
        fallback is counted as ``streaming.checkpoint_fallbacks``.
        """
        document, used_prev = load_checkpoint_json(path)
        analyzer = cls.from_snapshot(bundle, document)
        if used_prev:
            analyzer.metrics.inc("streaming.checkpoint_fallbacks")
        return analyzer

    # Queries -------------------------------------------------------------------

    def monthly_mutual_share(self) -> list[MonthlyShare]:
        """The running Figure 1 series."""
        return self._monthly.rows()

    def certificate_statistics(self) -> list[CertStatsRow]:
        """The running Table 1 (only certificates referenced by a
        connection are counted, matching the batch pipeline)."""
        return self._usage.rows()

    def tls13_blindspot(self) -> Tls13Blindspot:
        """The running §3.3 blind-spot counters."""
        return self._tls13.result()

    @property
    def unique_certificates(self) -> int:
        return self._usage.used
