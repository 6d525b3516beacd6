"""Metric names, units and directions, plus the statistics every
runner reports them with.

``BENCHMARK.json`` at the repository root must declare exactly these
names (``test_e2e.py`` checks it); it adds the regression bound of each
end-to-end metric.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.protocol import PAPER_TABLE_ORDER

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: name → (unit, better). Every workload reports every one of these.
END_TO_END: dict[str, tuple[str, str]] = {
    "campaign_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_LAYERS: list[tuple[str, str, str]] = [
    ("zeek.ssl_decode_s", "s", "lower"),
    ("zeek.x509_decode_s", "s", "lower"),
    ("zeek.rows", "count", "lower"),
    ("zeek.rows_per_s", "rows/s", "higher"),
    ("zeek.rows_dropped", "count", "lower"),
    ("zeek.x509_useful_frac", "ratio", "higher"),
    ("store.open_s", "s", "lower"),
    ("store.read_s", "s", "lower"),
    ("store.pack_s", "s", "lower"),
    ("store.bytes_per_tsv_byte", "ratio", "lower"),
    ("dataset.join_s", "s", "lower"),
    ("dataset.connections", "count", "higher"),
    ("dataset.dangling_fuid_refs", "count", "lower"),
    ("enrich.scan_s", "s", "lower"),
    ("enrich.scan_merge_s", "s", "lower"),
    ("enrich.label_s", "s", "lower"),
    ("enrich.factcache_hit_frac", "ratio", "higher"),
    ("enrich.excluded_frac", "ratio", "lower"),
]
for _name in PAPER_TABLE_ORDER:
    _LAYERS.append((f"analysis.{_name}.update_s", "s", "lower"))
    _LAYERS.append((f"analysis.{_name}.finalize_s", "s", "lower"))
_LAYERS += [
    ("protocol.update_interleaved_s", "s", "lower"),
    ("protocol.merge_s", "s", "lower"),
    ("protocol.partials_bytes", "bytes", "lower"),
    ("gc.pause_s", "s", "lower"),
    ("parallel.scan_phase_s", "s", "lower"),
    ("parallel.analyze_phase_s", "s", "lower"),
    ("parallel.merge_s", "s", "lower"),
    ("parallel.busy_frac", "ratio", "higher"),
    ("parallel.phaseb_rereads", "count", "lower"),
    ("supervisor.attempts_per_shard", "count", "lower"),
    ("pipeline.saving_s", "s", "higher"),
    ("trace.attributed_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: name → (unit, better), reported by ``--trace`` runs.
PER_LAYER: dict[str, tuple[str, str]] = {
    name: (unit, better) for name, unit, better in _LAYERS
}


@dataclass
class Outcome:
    """One workload run: metric values, operations attempted and
    failed, and diagnostics for the human-readable output."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: Trace spans (``--trace`` runs only).
    spans: list[dict] = field(default_factory=list)


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def emit(values: dict[str, float], spec: dict[str, tuple[str, str]]) -> dict:
    """The result-line ``metrics`` object: every spec'd metric, in spec
    order, with its unit."""
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _) in spec.items()
    }


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
