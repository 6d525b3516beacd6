"""``compare`` and ``summarize`` over ``run --out`` record files."""

from __future__ import annotations

import json
from pathlib import Path

from . import metrics
from .layers import ROOT, layer_table
from .workloads import WORKLOADS


def read_records(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as source:
        return [json.loads(line) for line in source if line.strip()]


def _values(records: list[dict]) -> dict[str, dict[str, list[float]]]:
    """workload → metric → values, over untraced runs."""
    out: dict[str, dict[str, list[float]]] = {}
    for record in records:
        if record["trace"]:
            continue
        per_metric = out.setdefault(record["workload"], {})
        for name, entry in record["result"]["metrics"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    return out


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """``regressed`` when B's median is worse than A's by more than the
    bound; ``unresolved`` when either side's quartile spread exceeds the
    bound and not every B run beats every A run; else ``ok``."""
    sign = 1 if better == "lower" else -1
    qa, qb = metrics.quartiles(a), metrics.quartiles(b)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    b_wins_all = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if spread > bound and not b_wins_all:
        return "unresolved"
    if sign * (qb[1] - qa[1]) / qa[1] > bound:
        return "regressed"
    return "ok"


def compare(path_a: Path, path_b: Path) -> int:
    """One row per workload and end-to-end metric: medians and quartiles
    of both sides, the change, and the verdict against BENCHMARK.json's
    bound. Exits 1 when anything regressed."""
    declared = {m["name"]: m for m in metrics.load_benchmark()["end_to_end"]}
    a, b = _values(read_records(path_a)), _values(read_records(path_b))
    print(f"{'workload':14} {'metric':15} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    regressed = False
    for workload in [w for w in WORKLOADS if w in a or w in b]:
        for name, spec in declared.items():
            va = a.get(workload, {}).get(name, [])
            vb = b.get(workload, {}).get(name, [])
            if not va or not vb:
                print(f"{workload:14} {name:15} {'(missing)':>30}")
                continue
            qa, qb = metrics.quartiles(va), metrics.quartiles(vb)
            result = verdict(va, vb, spec["bound"], spec["better"])
            regressed = regressed or result == "regressed"
            side_a = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
            side_b = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
            change = 100 * (qb[1] - qa[1]) / qa[1]
            print(f"{workload:14} {name:15} {side_a:>30} {side_b:>30} "
                  f"{change:>+7.1f}% {spec['bound']:>6.2f}  {result} "
                  f"(n={len(va)}/{len(vb)})")
    return 1 if regressed else 0


def summarize(path: Path) -> int:
    """Per traced run: each layer's self time, its share of the replayed
    campaign's wall time and its span count; then the run's counts and
    ratios, and the attribution and tracing-overhead fractions."""
    records = [r for r in read_records(path) if r["trace"]]
    if not records:
        print(f"no traced runs in {path}")
        return 1
    for record in records:
        spans = record["spans"]
        roots = [s["end"] - s["start"] for s in spans if s["name"] == ROOT]
        wall = sum(roots)
        table = layer_table(spans)
        print(f"== {record['workload']} (seed {record['seed']}): "
              f"{len(roots)} replayed campaigns, {wall:.3f} s")
        print(f"  {'layer':36} {'self s':>9} {'share':>7} {'count':>6}")
        # The root's own self time is replay glue no layer covers.
        rows = [
            ("(unattributed)", True, row) if name == ROOT else (name, in_root, row)
            for (name, in_root), row in table.items()
        ]
        rows.sort(key=lambda item: (not item[1], -item[2]["self_s"]))
        for name, in_root, row in rows:
            share = f"{100 * row['self_s'] / wall:6.1f}%" if in_root else "   side"
            print(f"  {name:36} {row['self_s']:>9.4f} {share:>7} {row['count']:>6}")
        print("  counts and ratios:")
        for name, entry in record["result"]["metrics"].items():
            if entry["unit"] not in ("s", "ms"):
                print(f"    {name:40} {entry['value']:>14.6g} {entry['unit']}")
    return 0
