"""The mergeable-analysis contract every table/figure implements.

The paper's pipeline is embarrassingly parallel across rotated monthly
logs. This module defines the uniform contract that lets one driver —
sequential or sharded — run *every* analysis:

- :class:`AnalysisPartial` — a picklable partial aggregate with
  ``update(conn)`` (one enriched connection at a time), ``merge(other)``
  (combine two partials; associative and order-insensitive),
  ``result()`` (the module's rich result object) and ``finalize()``
  (the rendered :class:`~repro.core.report.Table`).
- :class:`Analysis` — a registry entry binding a stable name
  (``"table1"``, ``"figure5"``, ...) to a partial factory.
- the **registry** — ``register()`` / ``get_analysis()`` /
  ``iter_analyses()``; analysis modules register themselves at import
  and :func:`load_default_analyses` pulls them all in.
- **drivers** — :func:`run_analyses` (one pass over a whole dataset
  updating every requested partial; ``run_analyses(enriched,
  [name])[name].result()`` computes one analysis),
  :func:`update_partials` (fold a connection stream into a partial
  set) and :func:`merge_partials` (fold one set into another).
- :class:`PopulationPartial` — the analyses that select from the
  certificate-profile population at finalize. A set built by
  :func:`create_partials` shares one :class:`ProfileStore` among them;
  :func:`update_partials` observes it once per connection and
  :func:`merge_partials` merges it once. A partial built standalone by
  its factory keeps a private store.

Partials must be deterministic independent of update/merge order: any
shard split of the same connection stream, merged in any order, must
finalize to byte-identical tables. That is what makes the
:class:`~repro.core.parallel.ShardExecutor` provably equivalent to the
sequential path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.dataset import ProfileStore
from repro.core.enrich import AssociationRules, InterceptionReport
from repro.core.report import Table
from repro.trust import TrustBundle

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.dataset import ConnView, MtlsDataset
    from repro.core.enrich import EnrichedConn, EnrichedDataset


@dataclass(frozen=True)
class AnalysisContext:
    """Everything a partial may need besides the connection stream.

    Must stay small and picklable: it is shipped to worker processes
    once and embedded in every partial.
    """

    bundle: TrustBundle
    rules: AssociationRules = field(default_factory=AssociationRules)
    #: The (globally computed) interception report; analyses that report
    #: on the filter itself read it at finalize time.
    interception: InterceptionReport | None = None

    @classmethod
    def from_enriched(cls, enriched: "EnrichedDataset") -> "AnalysisContext":
        return cls(
            bundle=enriched.bundle,
            rules=enriched.rules,
            interception=enriched.interception,
        )


class AnalysisPartial:
    """Base class for partial aggregates.

    Subclasses override :meth:`update` (and :meth:`update_raw` when they
    consume the *unfiltered* dataset, like the TLS 1.3 blind spot),
    :meth:`merge`, :meth:`result` and :meth:`finalize`. The base
    methods are deliberate no-ops so context-only analyses (e.g. the
    interception summary) stay trivial.
    """

    def update(self, conn: "EnrichedConn") -> None:
        """Fold one enriched (post-filter) connection into the state."""

    def update_raw(self, view: "ConnView") -> None:
        """Fold one raw (pre-interception-filter) connection view in."""

    def merge(self, other: "AnalysisPartial") -> None:
        """Fold another partial of the same type into this one."""
        raise NotImplementedError

    def result(self) -> Any:
        """The rich result object the table is rendered from."""
        raise NotImplementedError

    def finalize(self) -> Table:
        """Render the result as the paper's table/figure."""
        raise NotImplementedError


class PopulationPartial(AnalysisPartial):
    """Base for the analyses over the certificate-profile population
    (Tables 6-9, 13, 14 and the SAN-type count): build the population
    shard by shard, then select and count at finalize time.

    Subclasses override :meth:`result` / :meth:`finalize` and read
    ``store.profiles``; the drivers may swap ``store`` for one shared
    by every population partial of a set.
    """

    def __init__(self, context: AnalysisContext) -> None:
        self._bundle = context.bundle
        self.store = ProfileStore()

    def update(self, conn: "EnrichedConn") -> None:
        self.store.observe(conn.view)

    def merge(self, other: "PopulationPartial") -> None:
        self.store.merge(other.store)


@dataclass(frozen=True)
class Analysis:
    """One registry entry.

    ``factory`` is called with an :class:`AnalysisContext` and must be
    importable by name (a class or module-level callable) so worker
    processes can construct partials locally.
    """

    name: str
    title: str
    factory: Callable[[AnalysisContext], AnalysisPartial]
    #: True when the partial consumes the unfiltered dataset via
    #: ``update_raw`` (in addition to — or instead of — ``update``).
    needs_raw: bool = False


#: Paper order of the study's artifacts; drivers and exporters iterate
#: in this order so sequential and sharded runs emit identical output.
PAPER_TABLE_ORDER: tuple[str, ...] = (
    "table1", "figure1", "table2", "table3", "figure2", "table4",
    "serials-inbound", "serials-outbound", "table5", "table6",
    "figure3", "figure4", "figure5", "table7", "table8", "table9",
    "table13a", "table13b", "table14a", "table14b",
    "san-types", "weak-crypto", "tls13", "interception",
)

_REGISTRY: dict[str, Analysis] = {}
_DEFAULTS_LOADED = False


def register(analysis: Analysis) -> Analysis:
    """Add an analysis to the registry (idempotent per name)."""
    existing = _REGISTRY.get(analysis.name)
    if existing is not None and existing.factory is not analysis.factory:
        raise ValueError(f"analysis {analysis.name!r} already registered")
    _REGISTRY[analysis.name] = analysis
    return analysis


def load_default_analyses() -> None:
    """Import every analysis module so its partials self-register."""
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    # Imported for their registration side effects.
    from repro.core import (  # noqa: F401
        cnsan, dummy, issuers, prevalence, services, sharing, tuples, validity,
    )
    from repro.core import enrich  # noqa: F401
    _DEFAULTS_LOADED = True


def get_analysis(name: str) -> Analysis:
    load_default_analyses()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown analysis {name!r} (registered: {known})") from None


def analysis_names() -> tuple[str, ...]:
    """All registered names, paper-ordered first, extensions after."""
    load_default_analyses()
    extras = tuple(n for n in _REGISTRY if n not in PAPER_TABLE_ORDER)
    return tuple(n for n in PAPER_TABLE_ORDER if n in _REGISTRY) + extras


def iter_analyses() -> Iterable[Analysis]:
    for name in analysis_names():
        yield _REGISTRY[name]


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def create_partials(
    names: Iterable[str] | None, context: AnalysisContext
) -> dict[str, AnalysisPartial]:
    """Fresh (empty) partials for the requested analyses; the
    population partials among them share one profile store."""
    selected = tuple(names) if names is not None else analysis_names()
    partials = {name: get_analysis(name).factory(context) for name in selected}
    store = ProfileStore()
    for partial in partials.values():
        if isinstance(partial, PopulationPartial):
            partial.store = store
    return partials


def _store_repeats(partials: Mapping[str, AnalysisPartial]) -> set[str]:
    """Names of the population partials whose store an earlier partial
    of the set already holds: updating or merging the first holder
    covers them."""
    seen: set[int] = set()
    repeats: set[str] = set()
    for name, partial in partials.items():
        if isinstance(partial, PopulationPartial):
            if id(partial.store) in seen:
                repeats.add(name)
            seen.add(id(partial.store))
    return repeats


def update_partials(
    partials: Mapping[str, AnalysisPartial],
    connections: Iterable["EnrichedConn"],
    raw_views: Iterable["ConnView"] = (),
) -> None:
    """One pass over the streams, updating every partial (a shared
    profile store once per connection)."""
    repeats = _store_repeats(partials)
    updaters = [p for name, p in partials.items() if name not in repeats]
    for conn in connections:
        for partial in updaters:
            partial.update(conn)
    raw_updaters = [
        partials[name] for name in partials if get_analysis(name).needs_raw
    ]
    if raw_updaters:
        for view in raw_views:
            for partial in raw_updaters:
                partial.update_raw(view)


def run_analyses(
    enriched: "EnrichedDataset",
    names: Iterable[str] | None = None,
    *,
    raw: "MtlsDataset | None" = None,
    context: AnalysisContext | None = None,
) -> dict[str, AnalysisPartial]:
    """Run the requested analyses over a fully loaded dataset.

    ``raw`` is the pre-interception-filter dataset for the analyses
    that measure the capture itself (defaults to ``enriched.dataset``,
    which is correct only when no certificates were excluded).
    """
    context = context or AnalysisContext.from_enriched(enriched)
    partials = create_partials(names, context)
    raw_dataset = raw if raw is not None else enriched.dataset
    update_partials(partials, enriched.connections, raw_dataset.connections)
    return partials


def merge_partials(
    into: dict[str, AnalysisPartial], other: Mapping[str, AnalysisPartial]
) -> dict[str, AnalysisPartial]:
    """Merge a shard's partials into the running aggregate (in place).

    Each distinct store of ``into`` takes one merge. Any of ``other``'s
    population partials is a valid source: they were all fed the same
    connections, whether they share a store or (standalone-built, or
    restored from state written before stores were shared) each own one.
    """
    repeats = _store_repeats(into)
    for name, partial in other.items():
        if name not in repeats:
            into[name].merge(partial)
    return into


# ---------------------------------------------------------------------------
# Context-only analyses
# ---------------------------------------------------------------------------


class InterceptionSummaryPartial(AnalysisPartial):
    """§3.2 filter summary — reads the globally computed report from the
    context; the connection stream carries no extra information.

    Defined here (not in ``enrich``) because analysis modules import
    ``enrich`` and ``enrich`` must stay protocol-free.
    """

    def __init__(self, context: AnalysisContext) -> None:
        self.report = context.interception or InterceptionReport(set(), set(), 0)

    def merge(self, other: "InterceptionSummaryPartial") -> None:
        # Both sides hold the same global report; keep the richer one.
        if other.report.total_certificates > self.report.total_certificates:
            self.report = other.report

    def result(self) -> InterceptionReport:
        return self.report

    def finalize(self) -> Table:
        from repro.core.enrich import render_interception_summary

        return render_interception_summary(self.report)


register(Analysis(
    name="interception",
    title="§3.2: TLS interception filter",
    factory=InterceptionSummaryPartial,
))
