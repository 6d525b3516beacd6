"""One-call orchestration: simulate the campus, run the full pipeline.

`CampusStudy` is the public entry point used by the examples and the
benchmark harness: it generates a scaled-down campaign with
`repro.netsim`, enriches it per §3.2, and exposes every table/figure
analysis as a method. All table methods are thin reads over the
analysis registry (:mod:`repro.core.protocol`): one pass over the
dataset fills a partial aggregate per registered analysis, and each
method just finalizes its partial.

With ``jobs > 0`` the ingested logs are served month by month through
a :class:`~repro.zeek.files.LogsSource` to the
:class:`~repro.core.parallel.ShardExecutor` over that many worker
processes; the merged partials finalize to tables byte-identical to the
in-memory sequential run.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from repro.core import metrics, protocol, tracing
from repro.core.dataset import MtlsDataset
from repro.core.enrich import EnrichedDataset, Enricher
from repro.core.report import Table, render_ingest_health
from repro.netsim import (
    CorruptionSummary,
    FaultPlan,
    LogCorruptor,
    ScenarioConfig,
    SimulationResult,
    TrafficGenerator,
)
from repro.zeek import (
    IngestReport,
    LogsSource,
    ZeekLogs,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)
from repro.zeek.ingest import IngestOptions


@dataclass
class StudyResult:
    """Everything produced by one end-to-end run."""

    simulation: SimulationResult
    dataset: MtlsDataset
    enriched: EnrichedDataset
    #: Populated when the campaign went through the TSV reader (i.e.
    #: `on_error` is lenient or a fault plan was given).
    ingest_report: IngestReport | None = None
    corruption: CorruptionSummary | None = None


@dataclass
class _Ingested:
    """The study's one ingest step: the logs the analyses read, and
    their join (whose ``ingest_report`` is the re-read's, if any)."""

    logs: ZeekLogs
    dataset: MtlsDataset
    corruption: CorruptionSummary | None


class CampusStudy:
    """Reproduces the paper's study on a synthetic campus campaign.

    With ``options.on_error`` set to ``skip``/``quarantine`` (or a
    ``fault_plan`` given), the generated campaign is serialized to Zeek
    TSV, optionally corrupted by the fault plan, and re-ingested through
    the resilient reader — the same path an operator's rotated archive
    takes — and the study report gains an ingest-health section.

    ``jobs`` selects the execution strategy: ``0`` (default) enriches
    and analyzes the whole dataset in-process; ``N >= 1`` fans the
    monthly shards of the same ingested logs out over ``N`` processes
    (``1`` = the same shard path run inline). Tables, the ingest-health
    section included, are byte-identical either way.
    """

    def __init__(
        self,
        seed: int = 7,
        months: int = 23,
        connections_per_month: int = 2000,
        config: ScenarioConfig | None = None,
        filter_interception: bool = True,
        *,
        fault_plan: FaultPlan | None = None,
        jobs: int = 0,
        options: IngestOptions | None = None,
    ) -> None:
        opts = IngestOptions.coerce(options)
        self.config = config or ScenarioConfig(
            seed=seed, months=months, connections_per_month=connections_per_month
        )
        self.filter_interception = filter_interception
        self.options = opts
        self.on_error = opts.on_error
        self.fast_path = opts.fast_path
        self.fault_plan = fault_plan
        self.jobs = jobs
        #: Run metrics for this study: phase timers plus ingest/analysis
        #: counters; for sharded runs the campaign's merged worker
        #: metrics are folded in.
        self.metrics = metrics.MetricsRegistry()
        self._simulation: SimulationResult | None = None
        self._ingested: _Ingested | None = None
        self._result: StudyResult | None = None
        self._partials: dict[str, protocol.AnalysisPartial] | None = None

    def _simulate(self) -> SimulationResult:
        if self._simulation is None:
            with metrics.scoped(self.metrics), tracing.span("study.simulate"):
                self._simulation = TrafficGenerator(self.config).generate()
        return self._simulation

    def _ingest(self) -> _Ingested:
        """Simulate, (optionally) re-ingest, and join (cached)."""
        if self._ingested is None:
            logs = self._simulate().logs
            report = corruption = None
            with metrics.scoped(self.metrics):
                if self.fault_plan is not None or self.on_error.lenient:
                    logs, report, corruption = self._reingest(logs)
                dataset = MtlsDataset.from_logs(logs, ingest_report=report)
            self._ingested = _Ingested(logs, dataset, corruption)
        return self._ingested

    def run(self) -> StudyResult:
        """Generate traffic and run enrichment in-process (cached)."""
        if self._result is not None:
            return self._result
        ingested = self._ingest()
        simulation = self._simulate()
        dataset = ingested.dataset
        with metrics.scoped(self.metrics):
            enricher = Enricher(
                bundle=simulation.trust_bundle,
                ct_log=simulation.ct_log,
                filter_interception=self.filter_interception,
                fact_cache=self.fast_path.enabled,
            )
            with tracing.span("study.enrich"):
                enriched = enricher.enrich(dataset)
            registry = metrics.get_registry()
            registry.inc(
                "analyze.connections_raw", len(dataset.connections)
            )
            registry.inc(
                "analyze.connections_enriched", len(enriched.connections)
            )
            if enricher.fact_cache is not None:
                registry.observe_cache(
                    enricher.fact_cache.stats, "certfacts.enrich"
                )
        self._result = StudyResult(
            simulation=simulation, dataset=dataset, enriched=enriched,
            ingest_report=dataset.ingest_report,
            corruption=ingested.corruption,
        )
        return self._result

    def _reingest(
        self, logs: ZeekLogs
    ) -> tuple[ZeekLogs, IngestReport, CorruptionSummary | None]:
        """Serialize → (optionally) corrupt → re-read under the policy."""
        ssl_text = ssl_log_to_string(logs.ssl)
        x509_text = x509_log_to_string(logs.x509)
        corruption = None
        if self.fault_plan is not None:
            ssl_text, x509_text, corruption = LogCorruptor(
                self.fault_plan
            ).corrupt_logs(ssl_text, x509_text)
        # Per-log-type reports so ingest metrics can be attributed to
        # ssl vs x509; the merged report keeps StudyResult's contract.
        ssl_report = IngestReport()
        x509_report = IngestReport()
        with tracing.span("study.reingest"):
            ssl = read_ssl_log(
                io.StringIO(ssl_text),
                self.options.for_path("ssl.log", ssl_report),
            )
            x509 = read_x509_log(
                io.StringIO(x509_text),
                self.options.for_path("x509.log", x509_report),
            )
        registry = metrics.get_registry()
        registry.observe_ingest(ssl_report, "ssl")
        registry.observe_ingest(x509_report, "x509")
        report = IngestReport()
        report.merge(ssl_report)
        report.merge(x509_report)
        return ZeekLogs(ssl=ssl, x509=x509), report, corruption

    @property
    def enriched(self) -> EnrichedDataset:
        return self.run().enriched

    # Analysis execution --------------------------------------------------------

    def partials(self) -> dict[str, protocol.AnalysisPartial]:
        """Every registered analysis, fully aggregated (cached)."""
        if self._partials is not None:
            return self._partials
        if self.jobs:
            self._partials = self._run_sharded()
        else:
            result = self.run()
            with metrics.scoped(self.metrics), tracing.span("study.analyze"):
                self._partials = protocol.run_analyses(
                    result.enriched, raw=result.dataset
                )
        return self._partials

    def _run_sharded(self) -> dict[str, protocol.AnalysisPartial]:
        from repro.core.parallel import ShardExecutor

        logs = self._ingest().logs
        simulation = self._simulate()
        executor = ShardExecutor(
            simulation.trust_bundle,
            simulation.ct_log,
            options=self.options,
            filter_interception=self.filter_interception,
            jobs=self.jobs,
        )
        campaign = executor.run_source(LogsSource(logs))
        if campaign.metrics is not None:
            self.metrics.merge(campaign.metrics)
        return campaign.partials

    def table(self, name: str) -> Table:
        """Finalize one registered analysis (e.g. ``"table5"``)."""
        partials = self.partials()
        try:
            partial = partials[name]
        except KeyError:
            known = ", ".join(partials)
            raise KeyError(f"unknown analysis {name!r} (have: {known})") from None
        return partial.finalize()

    def analysis_result(self, name: str):
        """The rich result object of one analysis (pre-render)."""
        return self.partials()[name].result()

    def tables(self) -> list[Table]:
        """Every registered analysis rendered, in registry order."""
        return [partial.finalize() for partial in self.partials().values()]

    # Table/figure entry points -------------------------------------------------

    def table1(self) -> Table:
        return self.table("table1")

    def figure1(self) -> Table:
        return self.table("figure1")

    def table2(self) -> Table:
        return self.table("table2")

    def table3(self) -> Table:
        return self.table("table3")

    def figure2(self) -> Table:
        return self.table("figure2")

    def table4(self) -> Table:
        return self.table("table4")

    def serials_inbound(self) -> Table:
        return self.table("serials-inbound")

    def serials_outbound(self) -> Table:
        return self.table("serials-outbound")

    def serial_collision_tables(self) -> tuple[Table, Table]:
        return self.serials_inbound(), self.serials_outbound()

    def table5(self) -> Table:
        return self.table("table5")

    def table6(self) -> Table:
        return self.table("table6")

    def figure3(self) -> Table:
        return self.table("figure3")

    def figure4(self) -> Table:
        return self.table("figure4")

    def figure5(self) -> Table:
        return self.table("figure5")

    def table7(self) -> Table:
        return self.table("table7")

    def table8(self) -> Table:
        return self.table("table8")

    def table9(self) -> Table:
        return self.table("table9")

    def table13a(self) -> Table:
        return self.table("table13a")

    def table13b(self) -> Table:
        return self.table("table13b")

    def table13(self) -> tuple[Table, Table]:
        return self.table13a(), self.table13b()

    def table14a(self) -> Table:
        return self.table("table14a")

    def table14b(self) -> Table:
        return self.table("table14b")

    def table14(self) -> tuple[Table, Table]:
        return self.table14a(), self.table14b()

    def san_types(self) -> Table:
        return self.table("san-types")

    def tls13_blindspot(self) -> Table:
        return self.table("tls13")

    def weak_crypto(self) -> Table:
        return self.table("weak-crypto")

    def interception_summary(self) -> Table:
        return self.table("interception")

    def ingest_health(self) -> Table:
        """Ingest-health section: what the resilient reader consumed,
        dropped, and recovered (strict in-memory runs have no report)."""
        dataset = self._ingest().dataset
        if dataset.ingest_report is None:
            table = Table("Ingest health", ["Metric", "Value"])
            table.add_note(
                "strict in-memory run — logs never went through the "
                "TSV reader; use on_error='skip'/'quarantine' or a fault "
                "plan to exercise ingestion"
            )
            return table
        return render_ingest_health(
            dataset.ingest_report,
            dangling_fuid_refs=dataset.dangling_fuid_refs,
        )

    def run_metrics(self) -> Table:
        """Run-metrics section: counters, gauges, histograms, and phase
        timers accumulated by this study (sharded runs include the
        merged worker metrics)."""
        self.partials()
        return self.metrics.render()

    def all_tables(self) -> list[Table]:
        """Every table/figure in paper order (used by the full example)."""
        tables = [self.table(name) for name in protocol.PAPER_TABLE_ORDER]
        if self._ingest().dataset.ingest_report is not None:
            tables.append(self.ingest_health())
        return tables
