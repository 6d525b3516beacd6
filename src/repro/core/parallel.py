"""Multiprocessing shard executor for whole-campaign studies.

A rotated Zeek archive is embarrassingly parallel across months. This
module fans the per-month shards out over worker processes, runs every
registered analysis as a partial aggregate in each worker, and merges
the partials chronologically in the parent — producing tables that are
byte-identical to a sequential run over the concatenated logs.

Two passes are required because the §3.2 interception filter is a
*global* decision: an issuer is flagged by the number of distinct
domains it contradicts across the whole campaign, not within one month.

- **Phase A (scan)**: each worker reads its shard (TSV reader +
  :class:`~repro.zeek.ingest.ErrorPolicy` from the fault-tolerant
  ingestion layer) and returns a mergeable
  :class:`~repro.core.enrich.InterceptionScan`. The parent merges the
  scans and finalizes the global :class:`InterceptionReport`.
- **Phase B (analyze)**: the report is broadcast back; each worker
  enriches its shard under the global report and folds it into one
  partial per registered analysis. The parent merges shard partials in
  chronological order.

Both phases are dispatched through the
:class:`~repro.core.supervisor.ShardSupervisor` rather than a bare
``Pool.map``: shard attempts are retried with backoff, hung workers are
killed on a wall-clock timeout, a failed worker is always recycled
before its shard is retried, and shards that exhaust their budget are
quarantined — aborting under :attr:`DegradePolicy.STRICT` or completing
the campaign from the surviving months under
:attr:`DegradePolicy.PARTIAL`, with the loss accounted for in a
:class:`~repro.core.supervisor.RunHealth` report on the result. The
``jobs <= 1`` path routes through the *same* supervisor inline, so the
0/1/N byte-identical equivalence properties extend to the failure
paths.

With a ``resume_dir``, every completed shard's scan and merged partials
are spilled to a crash-safe campaign manifest as soon as they arrive
(pickled, like the partial states embedded in streaming snapshot v2);
a rerun pointed at the same directory skips the finished shards — the
update/merge/finalize protocol makes the spilled partials trivially
re-mergeable, so a resumed campaign is byte-identical to an
uninterrupted one.

Workers cache the parsed shard between phases, and the supervisor
sends each phase-B shard back to the worker that scanned it (shard
affinity). A worker whose own shards are done steals another's *last*
pending one and reads that ssl file a second time; so does whichever
worker takes a shard whose phase-A worker was recycled or that was
resumed from a manifest. The x509 stream is broadcast to every shard,
because fuid references may cross a month boundary, but each process
decodes it once: its :class:`~repro.zeek.files.TsvDirectorySource`
serves every month from that one decode.

The whole campaign, both phases and the merge, runs inside one
:func:`collector_scope`, in the parent and in every worker.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import multiprocessing
import pickle
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core import metrics, protocol, tracing
from repro.core.dataset import MtlsDataset, presents_any
from repro.core.durable import durable_write, sweep_orphans
from repro.core.enrich import (
    AssociationRules,
    CtLookup,
    Enricher,
    InterceptionReport,
    InterceptionScan,
)
from repro.core.pipeline import BatchFeed, Pipeline
from repro.core.report import Table
from repro.core.supervisor import (
    DegradePolicy,
    RetryPolicy,
    RunHealth,
    ShardSupervisor,
)
from repro.zeek.files import TsvDirectorySource
from repro.zeek.ingest import (
    ErrorPolicy,
    FastPath,
    IngestOptions,
    IngestReport,
    RecordSource,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.faults import WorkerFaultPlan
    from repro.trust.store import TrustBundle


#: The collector's generation-0 threshold during a campaign (CPython's
#: default is 700).
CAMPAIGN_GEN0_THRESHOLD = 50_000


@contextlib.contextmanager
def collector_scope():
    """Raise the collector's generation-0 threshold to
    :data:`CAMPAIGN_GEN0_THRESHOLD` and restore the previous thresholds
    on exit, error included.

    A campaign's decoded records, joined datasets and partials live
    until the chronological merge, so at the default threshold most
    young collections scan objects that survive them. The scope covers
    the merge too: a scope that ended before it would only move the
    deferred collections into the merge. Nesting is safe: an inner scope
    never lowers a threshold, and restores what it found. A threshold of
    0 (automatic collection off) stays 0.
    """
    previous = gc.get_threshold()
    if previous[0]:
        gc.set_threshold(
            max(previous[0], CAMPAIGN_GEN0_THRESHOLD), *previous[1:]
        )
    try:
        yield
    finally:
        gc.set_threshold(*previous)


@dataclass(frozen=True)
class _ExecutorConfig:
    """Shipped to each worker process exactly once (at spawn)."""

    bundle: object
    ct_log: object | None
    rules: AssociationRules
    filter_interception: bool
    min_interception_domains: int
    on_error: ErrorPolicy
    names: tuple[str, ...] | None
    #: Fast-path mode (stored as the enum's string value so the config
    #: pickles compactly to workers). Byte-identical either way.
    fast_path: str = FastPath.AUTO.value
    #: Intra-shard pipelining mode (string value, like ``fast_path``):
    #: stream decoded ssl batches into scan/enrich/analyze instead of
    #: loading a whole month first. Byte-identical either way.
    pipeline: str = Pipeline.AUTO.value
    #: Process-level fault injection (tests / chaos drills only).
    fault_plan: object | None = None
    #: JSONL trace sink every worker configures for itself (optional).
    trace_path: str | None = None
    #: Where shard records come from; bound per run (the executor is
    #: source-agnostic until :meth:`ShardExecutor.run_source`).
    source: RecordSource | None = None

    def ingest_options(self) -> IngestOptions:
        return IngestOptions(on_error=self.on_error, fast_path=self.fast_path)


@dataclass
class _ScanOutcome:
    """Phase-A result: the mergeable scan plus the worker's metrics
    snapshot for this shard task."""

    scan: InterceptionScan
    metrics: dict | None = None


@dataclass
class _ShardOutcome:
    month: str
    partials: dict[str, protocol.AnalysisPartial]
    ssl_report: IngestReport
    x509_report: IngestReport
    dangling_fuid_refs: int
    #: Worker-side MetricsRegistry snapshot for the analyze task
    #: (``state_dict()`` form — JSON/pickle safe).
    metrics: dict | None = None


@dataclass
class CampaignResult:
    """Merged output of a (possibly parallel, possibly degraded) run."""

    months: tuple[str, ...]
    partials: dict[str, protocol.AnalysisPartial]
    interception: InterceptionReport
    ingest: IngestReport
    dangling_fuid_refs: int
    jobs: int = 1
    #: Supervision report: attempts, retries, quarantined months,
    #: coverage. ``None`` only on results built by very old callers.
    health: RunHealth | None = None
    #: Merged campaign metrics: per-shard worker registries + parent
    #: phase timers + supervisor accounting. Counters and histograms
    #: are deterministic across job counts; timers/gauges are not.
    metrics: metrics.MetricsRegistry | None = None

    def result(self, name: str):
        """The rich result object of one analysis (pre-render)."""
        try:
            partial = self.partials[name]
        except KeyError:
            known = ", ".join(self.partials)
            raise KeyError(
                f"no analysis {name!r} in this run (have: {known})"
            ) from None
        return partial.result()

    def table(self, name: str) -> Table:
        try:
            partial = self.partials[name]
        except KeyError:
            known = ", ".join(self.partials)
            raise KeyError(f"no analysis {name!r} in this run (have: {known})") from None
        return partial.finalize()

    def tables(self) -> list[Table]:
        """Every analysis rendered, in registry (paper) order."""
        return [partial.finalize() for partial in self.partials.values()]


# ---------------------------------------------------------------------------
# Per-shard work (runs in workers; also called inline when jobs == 1)
# ---------------------------------------------------------------------------


def _make_enricher(config: _ExecutorConfig) -> Enricher:
    return Enricher(
        bundle=config.bundle,
        ct_log=config.ct_log,
        rules=config.rules,
        filter_interception=config.filter_interception,
        min_interception_domains=config.min_interception_domains,
        fact_cache=FastPath.coerce(config.fast_path).enabled,
    )


def _load_shard(config: _ExecutorConfig, cache: dict, month: str):
    triple = cache.get(month)
    if triple is None:
        with tracing.span("shard.read", month=month):
            shard = config.source.read_month(month, config.ingest_options())
            triple = (
                MtlsDataset(shard.ssl, shard.x509),
                shard.ssl_report,
                shard.x509_report,
            )
        cache[month] = triple
    return triple


def _pipeline_active(config: _ExecutorConfig) -> bool:
    """Whether this worker may stream shards batch by batch: pipelining
    is requested and the bound source supports ``stream_month`` (the
    columnar store maps whole shards from disk — nothing to overlap)."""
    return (
        Pipeline.coerce(config.pipeline).enabled
        and hasattr(config.source, "stream_month")
    )


class _ShardStream:
    """One pipelined shard load: the ssl stream decodes on a feeder
    thread while this thread loads x509, joins, and hands new
    connections to the consuming phase batch by batch.

    The serial path ts-sorts each month before processing; rotated
    archives are written in ts order, so arrival order normally *is*
    sorted order and the incremental results are byte-identical. A
    violation of that assumption is detected record by record: the
    stream stops yielding, the remainder is drained, and the dataset is
    rebuilt from the ts-sorted records — the caller discards its
    incremental state and recomputes, exactly like a serial run.
    """

    def __init__(self, config: _ExecutorConfig, month: str) -> None:
        stream = config.source.stream_month(month, config.ingest_options())
        self._stream = stream
        self._feed = BatchFeed(stream.ssl_batches())
        try:
            self._x509 = stream.read_x509()
        except Exception:
            # ssl-error-wins: the serial path reads ssl.log before
            # x509.log, so a concurrent ssl failure takes precedence
            # over this x509 one.
            ssl_error = self._feed.drain_error()
            if ssl_error is not None:
                raise ssl_error from None
            raise
        self.dataset = MtlsDataset((), self._x509)
        self.ordered = True
        self.batches = 0

    def connections(self):
        """Yield lists of newly joined ConnViews, batch by batch."""
        dataset = self.dataset
        all_ssl: list = []
        last_ts = None
        try:
            for batch in self._feed:
                self.batches += 1
                all_ssl.extend(batch)
                if self.ordered:
                    for record in batch:
                        if last_ts is not None and record.ts < last_ts:
                            self.ordered = False
                            break
                        last_ts = record.ts
                if self.ordered:
                    yield dataset.extend_ssl(batch)
        finally:
            self._feed.close()
        if not self.ordered:
            all_ssl.sort(key=lambda r: r.ts)
            self.dataset = MtlsDataset(all_ssl, self._x509)

    def triple(self):
        """The finished shard in ``_load_shard``'s cache-entry shape."""
        return (
            self.dataset, self._stream.ssl_report, self._stream.x509_report
        )


def _scan_shard(
    config: _ExecutorConfig, cache: dict, month: str
) -> _ScanOutcome:
    registry = metrics.MetricsRegistry()
    with metrics.scoped(registry):
        with tracing.span("shard.scan", month=month):
            scan = None
            if month not in cache and _pipeline_active(config):
                with tracing.span("shard.stream", month=month):
                    stream = _ShardStream(config, month)
                    scan = _make_enricher(config).new_scan()
                    for conns in stream.connections():
                        for conn in conns:
                            scan.observe(conn)
                cache[month] = stream.triple()
                # Phase A reads every month exactly once at any job
                # count, so these stay deterministic across jobs.
                registry.inc("pipeline.shards", 1)
                registry.inc("pipeline.batches", stream.batches)
                if not stream.ordered:
                    # The incremental observations ran in arrival order;
                    # redo them over the rebuilt (sorted) dataset with a
                    # fresh scan so cache stats match the serial path.
                    registry.inc("pipeline.fallbacks", 1)
                    scan = None
            dataset, _, _ = _load_shard(config, cache, month)
            if scan is None:
                scan = _make_enricher(config).new_scan()
                for conn in dataset.connections:
                    scan.observe(conn)
            registry.inc("scan.connections_observed", len(dataset.connections))
            registry.inc("scan.shards", 1)
            if scan.fact_cache is not None:
                registry.observe_cache(scan.fact_cache.stats, "certfacts.scan")
    return _ScanOutcome(scan=scan, metrics=registry.state_dict())


def _pipelined_analysis(
    config: _ExecutorConfig,
    cache: dict,
    month: str,
    report: InterceptionReport,
):
    """Overlapped phase-B analysis: enrich + update partials per batch.

    Returns ``(partials, enriched_count, fact_cache)``, or ``None`` when
    the stream was out of ts order — the shard is then cached in its
    rebuilt (sorted) form and the caller reruns the serial body over it.

    Per-batch ``update_partials`` calls interleave ``update`` and
    ``update_raw``; that is safe because no registered analysis consumes
    both streams (pinned by tests/core/test_pipeline.py): each partial
    sees its own stream in exactly the serial order. Deliberately emits
    no ``pipeline.*`` counters: phase B only streams on a cache miss,
    which depends on worker placement, and analyze counters must stay
    deterministic across job counts.
    """
    with tracing.span("shard.stream", month=month):
        stream = _ShardStream(config, month)
        enricher = _make_enricher(config)
        context = protocol.AnalysisContext(
            bundle=config.bundle, rules=config.rules, interception=report,
        )
        partials = protocol.create_partials(config.names, context)
        excluded_fuids: set[str] = set()
        if config.filter_interception and report.excluded_fingerprints:
            excluded_fuids = stream.dataset.fuids_of(
                report.excluded_fingerprints
            )
        label = enricher.label
        enriched_count = 0
        for conns in stream.connections():
            enriched = [
                label(conn) for conn in conns
                if not presents_any(conn.ssl, excluded_fuids)
            ]
            protocol.update_partials(partials, enriched, conns)
            enriched_count += len(enriched)
    cache[month] = stream.triple()
    if not stream.ordered:
        return None
    return partials, enriched_count, enricher.fact_cache


def _analyze_shard(
    config: _ExecutorConfig,
    cache: dict,
    month: str,
    report: InterceptionReport,
) -> _ShardOutcome:
    registry = metrics.MetricsRegistry()
    with metrics.scoped(registry):
        streamed = None
        if month not in cache and _pipeline_active(config):
            streamed = _pipelined_analysis(config, cache, month, report)
        if streamed is not None:
            partials, enriched_count, fact_cache = streamed
            dataset, ssl_report, x509_report = cache[month]
        else:
            dataset, ssl_report, x509_report = _load_shard(config, cache, month)
            enricher = _make_enricher(config)
            with tracing.span("shard.enrich", month=month):
                enriched = enricher.enrich_with_report(dataset, report)
            context = protocol.AnalysisContext(
                bundle=config.bundle, rules=config.rules, interception=report,
            )
            with tracing.span("shard.analyze", month=month):
                partials = protocol.run_analyses(
                    enriched, config.names, raw=dataset, context=context,
                )
            enriched_count = len(enriched.connections)
            fact_cache = enricher.fact_cache
        registry.inc("analyze.shards", 1)
        registry.inc("analyze.connections_enriched", enriched_count)
        registry.inc("analyze.connections_raw", len(dataset.connections))
        if fact_cache is not None:
            registry.observe_cache(fact_cache.stats, "certfacts.enrich")
        registry.observe(
            "shard.connections", enriched_count,
            edges=metrics.COUNT_EDGES,
        )
    return _ShardOutcome(
        month=month,
        partials=partials,
        ssl_report=ssl_report,
        x509_report=x509_report,
        dangling_fuid_refs=dataset.dangling_fuid_refs,
        metrics=registry.state_dict(),
    )


# A forked worker inherits the parent's collector scope; a spawned one
# starts at the interpreter's defaults, so it enters the scope itself.
@collector_scope()
def _supervised_worker(config: _ExecutorConfig, conn) -> None:
    """Worker loop: serve ``(kind, key, attempt, payload)`` requests.

    One request at a time over a private duplex pipe; the parsed-shard
    cache persists across requests (phase A → phase B) but dies with
    the process — which is exactly why the supervisor recycles us after
    any failure.
    """
    protocol.load_default_analyses()
    tracing.configure(config.trace_path)
    cache: dict = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        kind, key, attempt, payload = message
        try:
            if config.fault_plan is not None:
                config.fault_plan.apply(key, kind, attempt)
            if kind == "scan":
                result = _scan_shard(config, cache, payload)
            else:
                month, report = payload
                result = _analyze_shard(config, cache, month, report)
        except Exception as exc:
            try:
                conn.send((key, "error", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
            continue
        try:
            conn.send((key, "ok", result))
        except (BrokenPipeError, OSError):
            break


# ---------------------------------------------------------------------------
# Crash-safe campaign manifest
# ---------------------------------------------------------------------------

#: Manifest schema tag; bump on incompatible layout changes.
#: v2: scan spills hold a ``_ScanOutcome`` (scan + metrics snapshot)
#: and shard outcomes embed their worker metrics, so a resumed
#: campaign's merged metrics equal an uninterrupted run's.
MANIFEST_FORMAT = "campaign-manifest/v2"


class CampaignManifest:
    """Crash-safe record of a campaign's completed shards.

    Layout under the run directory::

        manifest.json        index: config/report fingerprints, spills
        scan.<month>.pkl     phase-A _ScanOutcome, one per month
        outcome.<month>.pkl  phase-B merged partials, one per month

    Every spill is written through :mod:`repro.core.durable` (temp file
    + fsync + atomic rename + directory fsync) and the manifest index
    is rewritten after each one, so a parent crash — or power cut — at
    any instant leaves a directory a rerun can load: finished shards
    are skipped, everything else re-runs. Orphaned temp files from a
    killed writer are swept at open. Phase-B outcomes additionally
    record the fingerprint of the global interception report they were
    computed under — if a resumed run merges to a *different* report
    (e.g. because a previously failing shard now contributes its scan),
    the stale outcomes are discarded instead of silently merged.
    """

    def __init__(self, directory: Path | str, config_fingerprint: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # One writer (the campaign parent) owns a run directory at a
        # time; anything *.tmp here is a dead writer's leftover.
        sweep_orphans(self.directory)
        self.config_fingerprint = config_fingerprint
        self.path = self.directory / "manifest.json"
        self._scans: dict[str, str] = {}
        self._outcomes: dict[str, str] = {}
        self._report_fingerprint: str | None = None
        if self.path.exists():
            self._load_index()

    def _load_index(self) -> None:
        index = json.loads(self.path.read_text(encoding="utf-8"))
        found = index.get("format")
        if found != MANIFEST_FORMAT:
            raise ValueError(
                f"unsupported campaign manifest format {found!r} in "
                f"{self.path} (expected {MANIFEST_FORMAT!r})"
            )
        if index.get("config") != self.config_fingerprint:
            raise ValueError(
                f"resume directory {self.directory} belongs to a different "
                "campaign (shard list or executor configuration changed); "
                "point --resume at a fresh directory"
            )
        self._scans = dict(index.get("scans", {}))
        self._outcomes = dict(index.get("outcomes", {}))
        self._report_fingerprint = index.get("report")

    def _write_index(self) -> None:
        payload = {
            "format": MANIFEST_FORMAT,
            "config": self.config_fingerprint,
            "report": self._report_fingerprint,
            "scans": self._scans,
            "outcomes": self._outcomes,
        }
        durable_write(
            self.path, json.dumps(payload, indent=2).encode("utf-8")
        )

    def _spill(self, filename: str, obj) -> None:
        durable_write(
            self.directory / filename,
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _load(self, filename: str):
        try:
            with (self.directory / filename).open("rb") as source:
                return pickle.load(source)
        except Exception:
            # A torn spill (crash mid-rename window, disk fault) is not
            # fatal: the shard simply re-runs.
            return None

    # Phase A -------------------------------------------------------------------

    def spill_scan(self, month: str, scan: _ScanOutcome) -> None:
        filename = f"scan.{month}.pkl"
        self._spill(filename, scan)
        self._scans[month] = filename
        self._write_index()

    def load_scans(self, months: list[str]) -> dict[str, _ScanOutcome]:
        loaded: dict[str, _ScanOutcome] = {}
        for month in months:
            filename = self._scans.get(month)
            if filename is None:
                continue
            scan = self._load(filename)
            if isinstance(scan, _ScanOutcome):
                loaded[month] = scan
        return loaded

    # Phase B -------------------------------------------------------------------

    def set_report_fingerprint(self, fingerprint: str) -> None:
        """Bind phase-B spills to the global report they were built
        under; a changed report invalidates every recorded outcome."""
        if self._report_fingerprint != fingerprint:
            self._report_fingerprint = fingerprint
            self._outcomes = {}
            self._write_index()

    def spill_outcome(self, month: str, outcome: _ShardOutcome) -> None:
        filename = f"outcome.{month}.pkl"
        self._spill(filename, outcome)
        self._outcomes[month] = filename
        self._write_index()

    def load_outcomes(
        self, months: list[str], report_fingerprint: str
    ) -> dict[str, _ShardOutcome]:
        if self._report_fingerprint != report_fingerprint:
            return {}
        loaded: dict[str, _ShardOutcome] = {}
        for month in months:
            filename = self._outcomes.get(month)
            if filename is None:
                continue
            outcome = self._load(filename)
            if outcome is not None:
                loaded[month] = outcome
        return loaded


def _report_fingerprint(report: InterceptionReport) -> str:
    digest = hashlib.sha256()
    digest.update(
        json.dumps(
            [
                sorted(report.flagged_issuers),
                sorted(report.excluded_fingerprints),
                report.total_certificates,
            ]
        ).encode("utf-8")
    )
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ShardExecutor:
    """Fan per-month shards out over supervised processes and merge.

    ``jobs <= 1`` runs every shard inline in the current process through
    the *same* supervisor code path, which is what makes the
    0/1/N-worker equivalence tests meaningful.

    ``retry``/``degrade`` control the supervision layer (see
    :mod:`repro.core.supervisor`); ``fault_plan`` injects deterministic
    worker faults (:class:`~repro.netsim.faults.WorkerFaultPlan`) for
    tests and chaos drills.
    """

    def __init__(
        self,
        bundle,
        ct_log=None,
        *,
        options: IngestOptions | None = None,
        rules: AssociationRules | None = None,
        filter_interception: bool = True,
        min_interception_domains: int = 5,
        names: tuple[str, ...] | None = None,
        jobs: int = 1,
        retry: RetryPolicy | None = None,
        degrade: DegradePolicy | str = DegradePolicy.STRICT,
        fault_plan=None,
        trace_path: str | Path | None = None,
        pipeline: Pipeline | str | bool | None = Pipeline.AUTO,
    ) -> None:
        opts = IngestOptions.coerce(options)
        if trace_path is None:
            # Inherit the process's configured sink so `tracing.configure`
            # in the driver propagates into worker processes.
            trace_path = tracing.sink_path()
        self.config = _ExecutorConfig(
            bundle=bundle,
            ct_log=ct_log,
            rules=rules or AssociationRules(),
            filter_interception=filter_interception,
            min_interception_domains=min_interception_domains,
            on_error=opts.on_error,
            names=tuple(names) if names is not None else None,
            fast_path=opts.fast_path.value,
            pipeline=Pipeline.coerce(pipeline).value,
            fault_plan=fault_plan,
            trace_path=str(trace_path) if trace_path is not None else None,
        )
        self.jobs = jobs
        self.retry = retry or RetryPolicy()
        self.degrade = DegradePolicy.coerce(degrade)

    def run_directory(
        self,
        directory: Path | str,
        *,
        resume_dir: Path | str | None = None,
        store: Path | str | None = None,
    ) -> CampaignResult:
        """Analyze a rotated-log directory (``ssl.YYYY-MM.log[.gz]``).

        With ``store``, the directory is packed into (or served from) a
        columnar store at that path: the first run parses TSV once and
        writes the store; every later run maps the columns straight from
        disk. Results are byte-identical either way.
        """
        if store is not None:
            from repro.store import ensure_store

            source = ensure_store(
                directory, store, options=self.config.ingest_options()
            )
        else:
            source = TsvDirectorySource(directory)
        return self.run_source(source, resume_dir=resume_dir)

    @collector_scope()
    def run_source(
        self,
        source: RecordSource,
        *,
        resume_dir: Path | str | None = None,
    ) -> CampaignResult:
        """Analyze every shard served by a :class:`RecordSource`: both
        phases and the merge run inside one :func:`collector_scope`."""
        months = sorted(source.months())
        if not months:
            raise ValueError("no shards to analyze")
        self.config = replace(self.config, source=source)
        jobs = max(1, min(self.jobs, len(months)))
        manifest = (
            CampaignManifest(resume_dir, self._config_fingerprint(source, months))
            if resume_dir is not None else None
        )

        spill_phase_b = False

        def on_result(kind: str, key: str, result) -> None:
            if manifest is None:
                return
            if kind == "scan":
                manifest.spill_scan(key, result)
            elif spill_phase_b:
                manifest.spill_outcome(key, result)

        supervisor = ShardSupervisor(
            jobs=jobs,
            retry=self.retry,
            degrade=self.degrade,
            worker_factory=self._worker_factory,
            inline_handlers=self._inline_handlers(),
            on_result=on_result,
        )
        run_metrics = metrics.MetricsRegistry()
        try:
            with metrics.scoped(run_metrics):
                resumed_scans = (
                    manifest.load_scans(months) if manifest is not None else {}
                )
                for month in resumed_scans:
                    supervisor.note_resumed(month, "scan")
                with tracing.span("campaign.scan"):
                    scans = supervisor.run_phase(
                        "scan",
                        [
                            (month, month)
                            for month in months
                            if month not in resumed_scans
                        ],
                    )
                scans.update(resumed_scans)
                surviving = [m for m in months if m in scans]
                if not surviving:
                    raise RuntimeError(
                        "every shard was quarantined during the scan phase; "
                        "nothing to analyze "
                        f"({supervisor.health.summary()})"
                    )
                report = self._merge_scans(
                    [scans[m].scan for m in surviving]
                )
                fingerprint = _report_fingerprint(report)
                resumed_outcomes: dict[str, _ShardOutcome] = {}
                if manifest is not None:
                    resumed_outcomes = manifest.load_outcomes(
                        months, fingerprint
                    )
                    manifest.set_report_fingerprint(fingerprint)
                for month in resumed_outcomes:
                    supervisor.note_resumed(month, "analyze")
                spill_phase_b = True
                with tracing.span("campaign.analyze"):
                    outcomes = supervisor.run_phase(
                        "analyze",
                        [
                            (month, (month, report))
                            for month in surviving
                            if month not in resumed_outcomes
                        ],
                    )
                outcomes.update(resumed_outcomes)
        finally:
            supervisor.close()
        completed = [m for m in surviving if m in outcomes]
        if not completed:
            raise RuntimeError(
                "every surviving shard was quarantined during the analyze "
                f"phase ({supervisor.health.summary()})"
            )
        for month in surviving:
            run_metrics.merge_state(scans[month].metrics)
        run_metrics.observe_run_health(supervisor.health)
        with metrics.scoped(run_metrics), tracing.span("campaign.merge"):
            return self._merge_outcomes(
                completed,
                report,
                [outcomes[m] for m in completed],
                jobs,
                supervisor.health,
                run_metrics,
            )

    # Supervision plumbing ------------------------------------------------------

    def _worker_factory(self, conn):
        context = multiprocessing.get_context()
        return context.Process(
            target=_supervised_worker,
            args=(self.config, conn),
            daemon=True,
        )

    def _inline_handlers(self):
        """The jobs=1 executors: same shard functions, same fault hook.

        The cache mimics a worker's shard cache; a retry drops the
        failed month's entry — the inline analogue of recycling the
        worker process, so a half-built cache cannot poison the retry.
        """
        config = self.config
        cache: dict = {}

        def scan(month: str, attempt: int) -> InterceptionScan:
            if attempt > 1:
                cache.pop(month, None)
            if config.fault_plan is not None:
                config.fault_plan.apply(month, "scan", attempt, inline=True)
            return _scan_shard(config, cache, month)

        def analyze(payload, attempt: int) -> _ShardOutcome:
            month, report = payload
            if attempt > 1:
                cache.pop(month, None)
            if config.fault_plan is not None:
                config.fault_plan.apply(month, "analyze", attempt, inline=True)
            return _analyze_shard(config, cache, month, report)

        return {"scan": scan, "analyze": analyze}

    def _config_fingerprint(
        self, source: RecordSource, months: list[str]
    ) -> str:
        """Identity of (source, shard list, configuration) for resume.

        The trust bundle is part of the identity; the CT log is not
        hashable in general and is assumed stable across a resume — as
        is the log content behind the source. ``fast_path`` and
        ``pipeline`` are deliberately *excluded*: the fast/batch
        decoders and the pipelined loader are byte-identical to the
        reference path by contract, so a campaign may resume across a
        ``--fast-path`` or ``--pipeline`` flip without invalidating
        spilled shards.
        """
        bundle = self.config.bundle
        payload = {
            "source": source.identity(),
            "months": list(months),
            "on_error": self.config.on_error.value,
            "filter_interception": self.config.filter_interception,
            "min_interception_domains": self.config.min_interception_domains,
            "names": list(self.config.names) if self.config.names else None,
            "bundle": [
                sorted(getattr(bundle, "subject_dns", ()) or ()),
                sorted(getattr(bundle, "organizations", ()) or ()),
            ],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def _merge_scans(self, scans: list[InterceptionScan]) -> InterceptionReport:
        # Merge into a fresh scan: the per-shard scans may be cached in
        # a resume manifest (or re-merged on retry) and must survive
        # merging untouched.
        merged = InterceptionScan(self.config.bundle, self.config.ct_log)
        for scan in scans:
            merged.merge(scan)
        return merged.finalize(self.config.min_interception_domains)

    def _merge_outcomes(
        self,
        months: list[str],
        report: InterceptionReport,
        outcomes: list[_ShardOutcome],
        jobs: int,
        health: RunHealth | None = None,
        run_metrics: "metrics.MetricsRegistry | None" = None,
    ) -> CampaignResult:
        # Chronological merge: outcomes arrive in spec (month) order.
        partials = outcomes[0].partials
        for outcome in outcomes[1:]:
            protocol.merge_partials(partials, outcome.partials)
        ingest = IngestReport()
        for outcome in outcomes:
            ingest.merge(outcome.ssl_report)
        # x509 is broadcast to every shard; count its ingestion once.
        ingest.merge(outcomes[0].x509_report)
        dangling = sum(o.dangling_fuid_refs for o in outcomes)
        if run_metrics is not None:
            for outcome in outcomes:
                run_metrics.merge_state(outcome.metrics)
            # Ingest counters derive from the per-shard reports (not from
            # live reader hooks) so they are identical at any job count —
            # a shard may be *parsed* twice when phase B lands on a
            # different worker, but its report is captured exactly once.
            for outcome in outcomes:
                run_metrics.observe_ingest(outcome.ssl_report, "ssl")
            run_metrics.observe_ingest(outcomes[0].x509_report, "x509")
            run_metrics.inc("campaign.dangling_fuid_refs", dangling)
        return CampaignResult(
            months=tuple(months),
            partials=partials,
            interception=report,
            ingest=ingest,
            dangling_fuid_refs=dangling,
            jobs=jobs,
            health=health,
            metrics=run_metrics,
        )


def analyze_directory(
    directory: Path | str,
    *,
    bundle: "TrustBundle",
    ct_log: CtLookup | None = None,
    options: IngestOptions | None = None,
    store: Path | str | None = None,
    rules: AssociationRules | None = None,
    filter_interception: bool = True,
    min_interception_domains: int = 5,
    names: tuple[str, ...] | None = None,
    jobs: int = 1,
    retry: RetryPolicy | None = None,
    degrade: DegradePolicy | str = DegradePolicy.STRICT,
    fault_plan: "WorkerFaultPlan | None" = None,
    resume_dir: Path | str | None = None,
    trace_path: str | Path | None = None,
    pipeline: Pipeline | str | bool | None = Pipeline.AUTO,
) -> CampaignResult:
    """One-call sharded analysis of a rotated Zeek archive.

    ``bundle`` (required) and ``ct_log`` are keyword-only. With
    ``store``, the archive is packed into a columnar store on first use
    and mapped from disk on every later run (byte-identical results).
    """
    executor = ShardExecutor(
        bundle,
        ct_log,
        options=options,
        rules=rules,
        filter_interception=filter_interception,
        min_interception_domains=min_interception_domains,
        names=names,
        jobs=jobs,
        retry=retry,
        degrade=degrade,
        fault_plan=fault_plan,
        trace_path=trace_path,
        pipeline=pipeline,
    )
    return executor.run_directory(directory, resume_dir=resume_dir, store=store)
