"""Process-local, mergeable pipeline metrics.

The sharded pipeline needed the same thing the analyses needed: state
that can be built independently in worker processes and merged
losslessly in the parent. :class:`MetricsRegistry` is that state for
*observability* — where time and records go inside a campaign — and it
follows the exact update/merge/finalize discipline of the analysis
partials in :mod:`repro.core.protocol`:

- **update** — ``inc()`` / ``set_gauge()`` / ``observe()`` /
  ``add_time()`` (or the :func:`~repro.core.tracing.span` context
  manager) fold one event into the registry;
- **merge** — ``merge()`` combines two registries; counter merges add,
  gauge merges keep the max, histogram merges add per-bucket counts
  (bucket edges must match), timer merges add totals and counts. Every
  merge rule is associative and commutative, so worker registries can
  arrive and merge in any order — the property tests in
  ``tests/core/test_metrics.py`` pin this down the same way
  ``test_protocol.py`` pins the analysis partials;
- **finalize** — ``render()`` produces the ``Run metrics`` report
  table, ``state_dict()`` the JSON document behind ``--metrics json``.

Registries are plain picklable data (dicts of ints/floats and two small
dataclasses); a worker builds one per shard task and ships its
``state_dict()`` home inside the shard result, so metrics ride the same
crash-safe manifest spills as the analysis partials and survive
``--resume`` byte-for-byte.

Determinism contract: **counters and histograms are deterministic** for
a given campaign — a ``jobs=4`` run merges to exactly the counters of a
``jobs=1`` run (enforced by ``tests/core/test_metrics_equivalence.py``).
Timers and gauges measure the wall clock and the schedule, and are
explicitly outside the equivalence.

An *ambient* registry (module-level, per process) lets instrumentation
sites stay one-liners: :func:`get_registry` returns the active
registry, :func:`scoped` swaps one in for a ``with`` block. There is no
locking — registries are process-local by design; cross-process
aggregation happens only by merging shipped snapshots.
"""

from __future__ import annotations

import contextlib
import time as _time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.core.report import Table

#: Default histogram bucket edges for duration-shaped observations
#: (seconds). A value lands in the first bucket whose edge is >= value;
#: values above the last edge land in the overflow bucket.
DEFAULT_EDGES: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Bucket edges for record-count-shaped observations (rows per shard,
#: connections per month, ...).
COUNT_EDGES: tuple[float, ...] = (
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


@dataclass
class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` holds observations with
    ``value <= edges[i]``; ``counts[-1]`` is the overflow bucket."""

    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        if tuple(sorted(self.edges)) != tuple(self.edges):
            raise ValueError(f"bucket edges must be sorted: {self.edges!r}")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)
        if len(self.counts) != len(self.edges) + 1:
            raise ValueError(
                f"histogram has {len(self.counts)} buckets for "
                f"{len(self.edges)} edges (want edges+1)"
            )

    def observe(self, value: float) -> None:
        index = len(self.edges)
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        if tuple(other.edges) != tuple(self.edges):
            raise ValueError(
                f"cannot merge histograms with different bucket edges: "
                f"{self.edges!r} vs {other.edges!r}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.total += other.total
        self.count += other.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def state_dict(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "Histogram":
        return cls(
            edges=tuple(state["edges"]),
            counts=list(state["counts"]),
            total=float(state["total"]),
            count=int(state["count"]),
        )


@dataclass
class Timer:
    """Accumulated wall-clock time of one named phase."""

    total: float = 0.0
    count: int = 0
    max: float = 0.0

    def add(self, seconds: float) -> None:
        self.total += seconds
        self.count += 1
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "Timer") -> None:
        self.total += other.total
        self.count += other.count
        if other.max > self.max:
            self.max = other.max

    def state_dict(self) -> dict[str, Any]:
        return {"total": self.total, "count": self.count, "max": self.max}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "Timer":
        return cls(
            total=float(state["total"]),
            count=int(state["count"]),
            max=float(state["max"]),
        )


#: Schema tag of the ``--metrics json`` document / ``state_dict()``.
METRICS_FORMAT = "run-metrics/v1"


class MetricsRegistry:
    """Counters, gauges, histograms, and phase timers for one process
    (or one shard task). See the module docstring for the contract."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.timers: dict[str, Timer] = {}

    # Update --------------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(
        self, name: str, edges: tuple[float, ...] = DEFAULT_EDGES
    ) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(edges=tuple(edges))
        return hist

    def observe(
        self, name: str, value: float, edges: tuple[float, ...] = DEFAULT_EDGES
    ) -> None:
        self.histogram(name, edges).observe(value)

    def timer(self, name: str) -> Timer:
        entry = self.timers.get(name)
        if entry is None:
            entry = self.timers[name] = Timer()
        return entry

    def add_time(self, name: str, seconds: float) -> None:
        self.timer(name).add(seconds)

    @contextlib.contextmanager
    def time(self, name: str) -> Iterator[None]:
        started = _time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, _time.perf_counter() - started)

    # Domain helpers ------------------------------------------------------------

    def observe_ingest(self, report, kind: str) -> None:
        """Fold one :class:`~repro.zeek.ingest.IngestReport` (duck-typed)
        into ``ingest.<kind>.*`` counters.

        Deriving ingest counters from the *report* — not from live hooks
        inside the TSV reader — is what keeps them deterministic under
        sharding: a shard may be parsed once or twice depending on which
        worker phase B lands on, but its IngestReport is captured
        exactly once per shard, so counters built from it merge to the
        same totals at any job count.
        """
        prefix = f"ingest.{kind}"
        self.inc(f"{prefix}.rows_ok", report.rows_ok)
        self.inc(f"{prefix}.rows_dropped", report.rows_dropped)
        self.inc(f"{prefix}.files_read", report.files_read)
        self.inc(f"{prefix}.header_recoveries", report.header_recoveries)
        self.inc(f"{prefix}.truncated_final_lines", report.truncated_final_lines)
        self.inc(f"{prefix}.files_missing_close", report.files_missing_close)
        self.inc(f"{prefix}.rows_quarantined", len(report.quarantined))
        for category, count in sorted(report.dropped_by_category.items()):
            self.inc(f"{prefix}.dropped.{category}", count)

    def observe_run_health(self, health) -> None:
        """Fold a :class:`~repro.core.supervisor.RunHealth` (duck-typed)
        into ``supervisor.*`` metrics."""
        self.inc("supervisor.shards_total", health.total_shards)
        self.inc("supervisor.shards_completed", len(health.completed_months))
        self.inc("supervisor.shards_resumed", len(health.resumed_months))
        self.inc("supervisor.shards_quarantined", len(health.quarantined_months))
        self.inc("supervisor.retries", health.total_retries)
        self.inc(
            "supervisor.attempts",
            sum(s.attempts for s in health.shards.values()),
        )
        self.set_gauge("supervisor.coverage", health.coverage)
        self.set_gauge("supervisor.jobs", float(health.jobs))

    def observe_cache(self, stats, prefix: str) -> None:
        """Fold a :class:`~repro.x509.facts.CacheStats` (duck-typed) into
        ``<prefix>.{hits,misses,evictions}`` counters."""
        self.inc(f"{prefix}.hits", stats.hits)
        self.inc(f"{prefix}.misses", stats.misses)
        self.inc(f"{prefix}.evictions", stats.evictions)

    def mirror_cache(self, stats, prefix: str) -> None:
        """:meth:`observe_cache` for stats that keep accumulating in one
        registry: overwrites, so repeated mirrors never double-count."""
        self.counters[f"{prefix}.hits"] = stats.hits
        self.counters[f"{prefix}.misses"] = stats.misses
        self.counters[f"{prefix}.evictions"] = stats.evictions

    # Merge ---------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            mine = self.gauges.get(name)
            if mine is None or value > mine:
                self.gauges[name] = value
        for name, hist in other.histograms.items():
            mine_hist = self.histograms.get(name)
            if mine_hist is None:
                self.histograms[name] = Histogram.from_state(hist.state_dict())
            else:
                mine_hist.merge(hist)
        for name, entry in other.timers.items():
            mine_timer = self.timers.get(name)
            if mine_timer is None:
                self.timers[name] = Timer.from_state(entry.state_dict())
            else:
                mine_timer.merge(entry)
        return self

    def merge_state(self, state: Mapping[str, Any] | None) -> "MetricsRegistry":
        """Merge a shipped ``state_dict()`` snapshot (None is a no-op,
        for results produced before metrics existed)."""
        if state is None:
            return self
        return self.merge(MetricsRegistry.from_state(state))

    # Finalize ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot — the ``--metrics json`` document."""
        return {
            "format": METRICS_FORMAT,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.state_dict()
                for name, hist in sorted(self.histograms.items())
            },
            "timers": {
                name: entry.state_dict()
                for name, entry in sorted(self.timers.items())
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "MetricsRegistry":
        found = state.get("format")
        if found != METRICS_FORMAT:
            raise ValueError(
                f"unsupported metrics snapshot format {found!r} "
                f"(expected {METRICS_FORMAT!r})"
            )
        registry = cls()
        registry.counters = {k: int(v) for k, v in state["counters"].items()}
        registry.gauges = {k: float(v) for k, v in state["gauges"].items()}
        registry.histograms = {
            k: Histogram.from_state(v) for k, v in state["histograms"].items()
        }
        registry.timers = {
            k: Timer.from_state(v) for k, v in state["timers"].items()
        }
        return registry

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms or self.timers)

    def render(self) -> Table:
        """The ``Run metrics`` section of the run report."""
        table = Table("Run metrics", ["Metric", "Value"])
        for name, value in sorted(self.counters.items()):
            table.add_row(name, f"{value:,}")
        for name, value in sorted(self.gauges.items()):
            table.add_row(name, f"{value:g}")
        for name, entry in sorted(self.timers.items()):
            table.add_row(
                f"{name} (s)",
                f"{entry.total:.3f} over {entry.count} "
                f"(max {entry.max:.3f})",
            )
        for name, hist in sorted(self.histograms.items()):
            table.add_row(
                name,
                f"n={hist.count} mean={hist.mean:,.1f} "
                f"buckets={_render_buckets(hist)}",
            )
        if not table.rows:
            table.add_note("no metrics recorded")
        return table


def _render_buckets(hist: Histogram) -> str:
    parts = []
    for edge, count in zip(hist.edges, hist.counts):
        if count:
            parts.append(f"<={edge:g}:{count}")
    if hist.counts[-1]:
        parts.append(f">{hist.edges[-1]:g}:{hist.counts[-1]}")
    return "[" + " ".join(parts) + "]"


# ---------------------------------------------------------------------------
# The ambient (process-local) registry
# ---------------------------------------------------------------------------

_ACTIVE = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process's active registry (instrumentation writes here)."""
    return _ACTIVE


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the active registry; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextlib.contextmanager
def scoped(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the ambient registry for the ``with`` block.

    Used at task boundaries: the shard executor scopes a fresh registry
    per shard task so each task's instrumentation lands in state that
    ships home with the task's result.
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
