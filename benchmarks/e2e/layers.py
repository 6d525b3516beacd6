"""Per-layer attribution for ``--trace`` runs.

The traced run replays one workload's campaign layer by layer through
the program's public functions, in the order ``ShardExecutor`` runs them
inline at ``jobs=1``: per month decode (or store read), join and
interception scan; the global scan merge; per month labelling and the
program's update loop (``run_analyses``); the chronological partial
merge; and one finalize per analysis. The replayed tables must equal
the reference digests.

Spans are kept in memory by :class:`Tracer` and reported as self time
per layer; garbage-collector pauses are a layer of their own. The
replay runs ``ROUNDS`` times between untraced campaigns, and every time
metric is per campaign. Side legs measure what the replay cannot show:
each analysis's own update cost (one analysis-major pass), the
pipeline's saving, the store's pack/open/read costs, and a ``jobs=2``
campaign's phase timers and worker busy time.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import pickle
import time
from collections import defaultdict
from pathlib import Path

from . import metrics
from .child import campaign_digests, table_digests
from .metrics import Outcome
from .workloads import Inputs, Workload

#: The replay's root span: its descendants are what ``trace.attributed_frac``
#: sums.
ROOT = "campaign"
#: Replays per traced run, each followed by an untraced campaign per
#: setting (default pipeline, then pipeline="off"). Smoke campaigns take
#: ~0.1 s, where one scheduler hiccup moves a ratio by 10%, so they
#: take more rounds.
ROUNDS = 3
SMOKE_ROUNDS = 15


class Tracer:
    """In-memory spans: name, start, end, parent and workload.

    Inside :meth:`gc_spans`, every garbage-collector pause is recorded
    as a ``gc.collect`` span under whichever span triggered it, so the
    pause is not billed to the layer that happened to allocate.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # Ids come from a counter, not len(spans): a collection (and
        # its span) can start while a span record is being built.
        self._ids = itertools.count()
        self._t0 = time.perf_counter()
        self._gc_started: tuple[float, int | None] | None = None

    def _record(self, span_id: int, name: str, parent: int | None, start: float) -> dict:
        record = {
            "id": span_id, "name": name, "parent": parent,
            "workload": self.workload, "start": start, "end": None,
        }
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        record = self._record(
            span_id, name, self._stack[-1] if self._stack else None,
            time.perf_counter() - self._t0,
        )
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter() - self._t0
        if phase == "start":
            self._gc_started = (now, self._stack[-1] if self._stack else None)
        elif self._gc_started is not None:
            start, parent = self._gc_started
            self._gc_started = None
            self._record(next(self._ids), "gc.collect", parent, start)["end"] = now

    @contextlib.contextmanager
    def gc_spans(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → its duration minus the time its children cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def _roots(spans: list[dict]) -> dict[int, int | None]:
    """Span id → id of the replay root it ran under (None outside)."""
    by_id = {s["id"]: s for s in spans}
    found: dict[int, int | None] = {}
    for span in spans:
        parent = span["parent"]
        while parent is not None and by_id[parent]["name"] != ROOT:
            parent = by_id[parent]["parent"]
        found[span["id"]] = parent
    return found


def root_rounds(spans: list[dict]) -> list[tuple[float, float]]:
    """Per replayed campaign: (wall time, self time of the layers inside
    it) — the root's own self time is the replay's unattributed glue."""
    own = self_times(spans)
    rounds = {s["id"]: [s["end"] - s["start"], 0.0] for s in spans if s["name"] == ROOT}
    for span_id, root in _roots(spans).items():
        if root is not None:
            rounds[root][1] += own[span_id]
    return [tuple(value) for value in rounds.values()]


def layer_table(spans: list[dict]) -> dict[tuple[str, bool], dict]:
    """(span name, ran inside a replayed campaign) → {self_s, count}."""
    own = self_times(spans)
    roots = _roots(spans)
    table: dict[tuple[str, bool], dict] = {}
    for span in spans:
        row = table.setdefault(
            (span["name"], roots[span["id"]] is not None), {"self_s": 0.0, "count": 0}
        )
        row["self_s"] += own[span["id"]]
        row["count"] += 1
    return table


# ---------------------------------------------------------------------------
# The replayed campaign
# ---------------------------------------------------------------------------


def _decode(tracer: Tracer, name: str, reader, paths, options, report) -> list:
    """One shard's log files through the program's own multi-file reader,
    ts-sorted as ``TsvDirectorySource.read_month`` leaves them."""
    from repro.zeek.files import _read_many

    with tracer.span(name):
        records = _read_many(paths, reader, options, report)
        records.sort(key=lambda r: r.ts)
    return records


class _Decoded:
    """Counts of the zeek layer over every shard."""

    def __init__(self) -> None:
        self.ssl_rows = 0
        self.x509_rows = 0
        #: Distinct certificates over every decode.
        self.x509_fuids: set[str] = set()
        self.dropped = 0


def _decode_shards(tracer: Tracer, archive: Path, options, stats: _Decoded):
    """Yield (ssl, x509) per shard, decoded from TSV the way
    ``TsvDirectorySource.read_month`` does (full x509 stream per shard)."""
    from repro.zeek import IngestReport, read_ssl_log, read_x509_log
    from repro.zeek.files import discover_shards

    for _, ssl_paths, x509_paths in discover_shards(archive):
        ssl_report, x509_report = IngestReport(), IngestReport()
        ssl = _decode(tracer, "zeek.ssl_decode", read_ssl_log, ssl_paths, options, ssl_report)
        x509 = _decode(tracer, "zeek.x509_decode", read_x509_log, x509_paths, options, x509_report)
        stats.ssl_rows += len(ssl)
        stats.x509_rows += len(x509)
        stats.x509_fuids.update(r.fuid for r in x509)
        stats.dropped += ssl_report.rows_dropped + x509_report.rows_dropped
        yield ssl, x509


def _shard_records(tracer: Tracer, inputs: Inputs, store: Path | None, options, stats):
    """Yield (ssl, x509) per shard from the workload's record source."""
    if store is None:
        yield from _decode_shards(tracer, inputs.archive, options, stats)
        return
    from repro.store import ensure_store

    with tracer.span("store.open"):
        source = ensure_store(inputs.archive, store, options)
    for month in source.months():
        with tracer.span("store.read"):
            shard = source.read_month(month, options)
        yield shard.ssl, shard.x509


def _enricher(inputs: Inputs):
    from repro.core.enrich import Enricher

    return Enricher(inputs.bundle, inputs.ct_log)


def _label(inputs: Inputs, dataset, report, caches: list):
    """``enrich_with_report`` under a fresh per-month enricher, as the
    executor does; returns the labelled dataset and analysis context."""
    from repro.core import protocol

    enricher = _enricher(inputs)
    caches.append(enricher.fact_cache)
    enriched = enricher.enrich_with_report(dataset, report)
    context = protocol.AnalysisContext(
        bundle=inputs.bundle, rules=enricher.rules, interception=report,
    )
    return enriched, context


def replay_campaign(tracer: Tracer, inputs: Inputs, store: Path | None) -> dict:
    """One jobs=1 campaign, layer by layer. Like the executor, it keeps
    every month's dataset and partials until the merge and drops each
    month's labelled connections once analysed, so its heap — and with
    it the collector's work — matches an untraced campaign's."""
    from repro.core import protocol
    from repro.core.dataset import MtlsDataset
    from repro.core.enrich import InterceptionScan
    from repro.zeek import IngestOptions

    options = IngestOptions()
    names = protocol.analysis_names()
    decoded = _Decoded()
    datasets = []
    scans = []
    caches = []
    with tracer.span(ROOT):
        for ssl, x509 in _shard_records(tracer, inputs, store, options, decoded):
            with tracer.span("dataset.join"):
                dataset = MtlsDataset(ssl, x509)
            with tracer.span("enrich.scan"):
                enricher = _enricher(inputs)
                scan = enricher.new_scan()
                for conn in dataset.connections:
                    scan.observe(conn)
            caches.append(enricher.fact_cache)
            scans.append(scan)
            datasets.append(dataset)
        with tracer.span("enrich.scan_merge"):
            merged_scan = InterceptionScan(inputs.bundle, inputs.ct_log)
            for scan in scans:
                merged_scan.merge(scan)
            report = merged_scan.finalize(enricher.min_interception_domains)

        shard_partials = []
        for dataset in datasets:
            with tracer.span("enrich.label"):
                enriched, context = _label(inputs, dataset, report, caches)
            with tracer.span("protocol.update_interleaved"):
                shard_partials.append(
                    protocol.run_analyses(enriched, raw=dataset, context=context)
                )
            del enriched

        with tracer.span("protocol.merge"):
            merged = shard_partials[0]
            for partials in shard_partials[1:]:
                protocol.merge_partials(merged, partials)
        del shard_partials

        tables = []
        for name in names:
            with tracer.span(f"analysis.{name}.finalize"):
                tables.append(merged[name].finalize())

    hits = sum(c.stats.hits for c in caches)
    return {
        "digests": table_digests(names, tables),
        "datasets": datasets,
        "decoded": decoded,
        "report": report,
        "factcache_hit_frac": hits / (hits + sum(c.stats.misses for c in caches)),
    }


# ---------------------------------------------------------------------------
# Side legs
# ---------------------------------------------------------------------------


def _campaign(inputs: Inputs, store: Path | None, **kwargs):
    from repro.core.parallel import analyze_directory

    return analyze_directory(
        inputs.archive, bundle=inputs.bundle, ct_log=inputs.ct_log, store=store, **kwargs,
    )


def _timed_campaign(inputs: Inputs, store: Path | None, **kwargs) -> tuple[float, dict]:
    started = time.perf_counter()
    campaign = _campaign(inputs, store, **kwargs)
    tables = campaign.tables()
    elapsed = time.perf_counter() - started
    return elapsed, table_digests(campaign.partials, tables)


def _analysis_major(tracer: Tracer, inputs: Inputs, datasets: list, report) -> int:
    """One pass per analysis over each month (the replay's interleaved
    loop updates every analysis per connection), so each analysis's
    update cost is its own span. Returns the pickled size of the
    per-month partials a worker would send."""
    from repro.core import protocol

    size = 0
    for dataset in datasets:
        enriched, context = _label(inputs, dataset, report, [])
        partials = {}
        for name in protocol.analysis_names():
            analysis = protocol.get_analysis(name)
            with tracer.span(f"analysis.{name}.update"):
                partial = analysis.factory(context)
                for conn in enriched.connections:
                    partial.update(conn)
                if analysis.needs_raw:
                    for view in dataset.connections:
                        partial.update_raw(view)
            partials[name] = partial
        size += len(pickle.dumps(partials, protocol=pickle.HIGHEST_PROTOCOL))
    return size


def _store_leg(tracer: Tracer, inputs: Inputs, store: Path, reads: bool) -> float:
    """Pack the archive; with ``reads``, also time the reuse check and
    every shard read (which a store-backed replay times itself).
    Returns store bytes per TSV byte."""
    from repro.store import ensure_store, pack_archive
    from repro.zeek import IngestOptions

    options = IngestOptions()
    with tracer.span("store.pack"):
        pack_archive(inputs.archive, store, options)
    if reads:
        with tracer.span("store.open"):
            source = ensure_store(inputs.archive, store, options)
        for month in source.months():
            with tracer.span("store.read"):
                source.read_month(month, options)
    store_bytes = sum(p.stat().st_size for p in store.glob("*.col"))
    tsv_bytes = sum(p.stat().st_size for p in inputs.archive.iterdir() if p.is_file())
    return store_bytes / tsv_bytes


def _busy_seconds(trace_file: Path) -> float:
    """Sum over worker processes of the wall time covered by their
    ``shard.*`` spans (nested spans counted once)."""
    from repro.core import tracing

    intervals: dict[int, list] = defaultdict(list)
    for event in tracing.read_trace(trace_file):
        if event.get("name", "").startswith("shard."):
            intervals[event["pid"]].append((event["ts"], event["ts"] + event["duration_s"]))
    busy = 0.0
    for spans in intervals.values():
        end = float("-inf")
        for start, stop in sorted(spans):
            if stop > end:
                busy += stop - max(start, end)
                end = stop
    return busy


def _parallel_leg(inputs: Inputs, store: Path | None, months: int) -> tuple[dict, dict]:
    jobs = 2
    trace_file = inputs.workdir / "parallel.trace.jsonl"
    campaign = _campaign(inputs, store, jobs=jobs, trace_path=trace_file)
    digests = campaign_digests(campaign)
    state = campaign.metrics.state_dict()
    timers, counters = state["timers"], state["counters"]

    def total(name: str) -> float:
        return timers[name]["total"]

    def count(name: str) -> int:
        # Which read timer exists depends on whether the source streams.
        return timers.get(name, {}).get("count", 0)

    phases = total("campaign.scan") + total("campaign.analyze")
    return {
        "parallel.scan_phase_s": total("campaign.scan"),
        "parallel.analyze_phase_s": total("campaign.analyze"),
        "parallel.merge_s": total("campaign.merge"),
        "parallel.busy_frac": _busy_seconds(trace_file) / (jobs * phases),
        # Phase A reads every month once; any further read is phase B
        # landing on a worker without the shard cached.
        "parallel.phaseb_rereads": count("shard.read") + count("shard.stream") - months,
        "supervisor.attempts_per_shard": (
            counters["supervisor.attempts"] / counters["supervisor.shards_total"]
        ),
    }, digests


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def run(workload: Workload, inputs: Inputs, rounds: int = ROUNDS) -> Outcome:
    from repro.zeek import IngestOptions

    tracer = Tracer(workload.name)
    checks: list[tuple[str, dict]] = []
    store = inputs.workdir / "store" if workload.store else None
    values: dict[str, float] = {}

    if store is not None:
        values["store.bytes_per_tsv_byte"] = _store_leg(tracer, inputs, store, reads=False)

    def untraced(label: str, **kwargs) -> float:
        gc.collect()
        elapsed, digests = _timed_campaign(inputs, store, jobs=1, **kwargs)
        checks.append((label, digests))
        return elapsed

    # Every replay is bracketed by untraced pipeline="off" campaigns, so
    # machine drift cancels in its ratio; each run starts from a
    # collected heap, with no replay state alive.
    base = [untraced("untraced campaign", pipeline="off")]
    default = []
    for round_index in range(rounds):
        gc.collect()
        with tracer.gc_spans():
            replay = replay_campaign(tracer, inputs, store)
            datasets = replay.pop("datasets")
            if round_index == rounds - 1:
                partials_bytes = _analysis_major(tracer, inputs, datasets, replay["report"])
                months = len(datasets)
                connections = sum(len(d.connections) for d in datasets)
                dangling = sum(d.dangling_fuid_refs for d in datasets)
            del datasets
        checks.append(("layer replay", replay["digests"]))
        default.append(untraced("pipelined campaign"))
        base.append(untraced("untraced campaign", pipeline="off"))
    brackets = [(before + after) / 2 for before, after in zip(base, base[1:])]
    replays = root_rounds(tracer.spans)

    if store is None:
        values["store.bytes_per_tsv_byte"] = _store_leg(
            tracer, inputs, inputs.workdir / "side-store", reads=True
        )
        decoded = replay["decoded"]
    else:
        decoded = _Decoded()
        for _ in _decode_shards(tracer, inputs.archive, IngestOptions(), decoded):
            pass
    parallel, digests = _parallel_leg(inputs, store, months)
    checks.append(("jobs=2 campaign", digests))

    layers = layer_table(tracer.spans)

    def seconds_of(name: str) -> float:
        """Self time per campaign: inside the replay (once per round)
        when the layer ran there, else in its side leg."""
        if (name, True) in layers:
            return layers[name, True]["self_s"] / rounds
        return layers.get((name, False), {"self_s": 0.0})["self_s"]

    decode_s = seconds_of("zeek.ssl_decode") + seconds_of("zeek.x509_decode")
    decoded_rows = decoded.ssl_rows + decoded.x509_rows
    values.update({
        "zeek.ssl_decode_s": seconds_of("zeek.ssl_decode"),
        "zeek.x509_decode_s": seconds_of("zeek.x509_decode"),
        "zeek.rows": decoded_rows,
        "zeek.rows_per_s": decoded_rows / decode_s,
        "zeek.rows_dropped": decoded.dropped,
        "zeek.x509_useful_frac": len(decoded.x509_fuids) / decoded.x509_rows,
        "store.open_s": seconds_of("store.open"),
        "store.read_s": seconds_of("store.read"),
        "store.pack_s": seconds_of("store.pack"),
        "dataset.join_s": seconds_of("dataset.join"),
        "dataset.connections": connections,
        "dataset.dangling_fuid_refs": dangling,
        "enrich.scan_s": seconds_of("enrich.scan"),
        "enrich.scan_merge_s": seconds_of("enrich.scan_merge"),
        "enrich.label_s": seconds_of("enrich.label"),
        "enrich.factcache_hit_frac": replay["factcache_hit_frac"],
        "enrich.excluded_frac": replay["report"].excluded_fraction,
        "protocol.update_interleaved_s": seconds_of("protocol.update_interleaved"),
        "protocol.merge_s": seconds_of("protocol.merge"),
        "protocol.partials_bytes": partials_bytes,
        "gc.pause_s": seconds_of("gc.collect"),
        "pipeline.saving_s": metrics.median(base) - metrics.median(default),
        "trace.attributed_frac": metrics.median(
            attributed / b for (_, attributed), b in zip(replays, brackets)
        ),
        "trace.overhead_frac": metrics.median(
            (wall - b) / b for (wall, _), b in zip(replays, brackets)
        ),
        **parallel,
    })
    for name in replay["digests"]:
        values[f"analysis.{name}.update_s"] = seconds_of(f"analysis.{name}.update")
        values[f"analysis.{name}.finalize_s"] = seconds_of(f"analysis.{name}.finalize")

    errors = [
        f"{label}: tables differ from the reference"
        for label, digests in checks if digests != inputs.reference
    ]
    return Outcome(
        metrics=values, attempted=len(checks), failed=len(errors), errors=errors,
        spans=tracer.spans,
        info={
            "base_s": base,
            "pipelined_s": default,
            "replay_s": [wall for wall, _ in replays],
        },
    )
