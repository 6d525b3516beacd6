"""Scaling-curve record: ingest row volume and job-count curves.

Not a paper artifact — the acceptance record of the batch-ingest +
intra-shard-pipelining engine. Two curves are measured and emitted to
``BENCH_scaling.json``:

* **Row-volume curve** — decoder throughput (rows/sec) for the two
  engines (``off`` reference, ``batch`` vectorized) at increasing total
  row volumes. Corpus text is tiled in
  memory up to a bounded size and re-read to reach each target volume,
  so the curve measures steady-state throughput without multi-GB
  strings. Full scale sweeps 10^5 → 10^7 rows; smoke shrinks the
  volumes, not the shape.

* **Job-count curve** — end-to-end ``analyze_directory`` wall time on a
  rotated archive, reference configuration (slow decode, no pipeline,
  ``jobs=1``) vs the engineered full leg (batch decode + intra-shard
  pipelining + ``jobs=N``), across job counts. The *full-leg speedup* —
  engineered best vs reference serial — is the ``>=5x`` acceptance bar
  of the batch-ingest engine at full scale; smoke (tiny corpora, often
  single-core CI) only sanity-checks the direction and records the
  curve. Byte-identical tables are re-asserted on every leg (the deep
  proof lives in tests/differential and tests/core/test_pipeline.py).
"""

import io
import os
import time

from repro.core.parallel import analyze_directory
from repro.core.report import Table
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import IngestOptions, read_ssl_log, ssl_log_to_string
from repro.zeek.files import write_rotated_logs

from .conftest import SMOKE, report

#: Total decoded-row volumes for the row-volume curve.
VOLUMES = (2_000, 10_000, 50_000) if SMOKE else (100_000, 1_000_000, 10_000_000)

#: Tiled corpus text is capped at this many rows; larger volumes repeat
#: whole reads of the tile (steady-state throughput, bounded memory).
MAX_TILE_ROWS = 1_000_000

MODES = ("off", "batch")

#: Full-leg acceptance: the engineered path (batch + pipelining +
#: jobs=N) must beat the reference serial path by this factor on the
#: full campaign (multi-core: the jobs dimension carries most of it).
#: Smoke corpora are tiny and CI runners may be single-core, where the
#: analysis phase dominates and parallelism is unavailable — smoke
#: therefore only asserts *no material end-to-end regression* and
#: records the curve; the real bar is full-scale.
MIN_FULL_LEG_SPEEDUP = 0.85 if SMOKE else 5.0

#: The batch engine must beat the reference engine by this factor at the
#: largest volume (single-threaded decode alone, no pipelining).
MIN_BATCH_SPEEDUP = 1.2 if SMOKE else 2.0

_CURVE_CONFIG = (
    ScenarioConfig(seed=7, months=2, connections_per_month=250)
    if SMOKE
    else ScenarioConfig(seed=7, months=4, connections_per_month=1500)
)

#: Smoke still needs enough rows per shard that decode time dominates
#: scheduling noise, or the measured ratio is a coin flip on slow CI.
_ARCHIVE_CONFIG = (
    ScenarioConfig(seed=7, months=3, connections_per_month=600)
    if SMOKE
    else ScenarioConfig(seed=7, months=12, connections_per_month=1500)
)


def _jobs_ladder() -> tuple[int, ...]:
    cores = os.cpu_count() or 1
    ladder = {1, 2, min(4, cores), min(8, cores)} if cores > 1 else {1, 2}
    if SMOKE:
        ladder = {j for j in ladder if j <= 2}
    return tuple(sorted(ladder))


def _tile(text: str, rows: int) -> tuple[str, int]:
    """Corpus text grown to ``min(rows, MAX_TILE_ROWS)`` data rows by
    repeating the data-row block under one header."""
    lines = text.splitlines(keepends=True)
    head = [l for l in lines if l.startswith("#") and not l.startswith("#close")]
    body = [l for l in lines if not l.startswith("#")]
    target = min(rows, MAX_TILE_ROWS)
    repeats = max(1, -(-target // len(body)))  # ceil division
    tiled_body = (body * repeats)[:target]
    return "".join(head) + "".join(tiled_body) + "#close\n", len(tiled_body)


def _measure_volume(ssl_tile: str, tile_rows: int, volume: int, mode: str):
    """Rows/sec for one decoder engine at one total row volume."""
    passes = max(1, -(-volume // tile_rows))
    started = time.perf_counter()
    total = 0
    for _ in range(passes):
        total += len(
            read_ssl_log(io.StringIO(ssl_tile), IngestOptions(fast_path=mode))
        )
    elapsed = time.perf_counter() - started
    return total / elapsed, total


def test_row_volume_curve():
    logs = TrafficGenerator(_CURVE_CONFIG).generate().logs
    base = ssl_log_to_string(logs.ssl)
    # Byte-identical across engines on the tiled corpus, re-asserted
    # here (the deep proof is the tests/differential suite).
    tile, tile_rows = _tile(base, VOLUMES[0])
    reference = read_ssl_log(io.StringIO(tile), IngestOptions(fast_path="off"))
    assert (
        read_ssl_log(io.StringIO(tile), IngestOptions(fast_path="batch"))
        == reference
    )

    curve = []
    table = Table(
        "Ingest scaling: rows/sec by volume and engine",
        ["Rows", "off", "batch", "batch/off"],
    )
    for volume in VOLUMES:
        tile, tile_rows = _tile(base, volume)
        rps = {}
        for mode in MODES:
            rps[mode], total = _measure_volume(tile, tile_rows, volume, mode)
            curve.append(
                {"rows": total, "mode": mode, "rows_per_sec": rps[mode]}
            )
        table.add_row(
            f"{volume:,}",
            f"{rps['off']:,.0f}",
            f"{rps['batch']:,.0f}",
            f"x{rps['batch'] / rps['off']:.2f}",
        )

    largest = {p["mode"]: p["rows_per_sec"] for p in curve[-len(MODES):]}
    smallest = {p["mode"]: p["rows_per_sec"] for p in curve[: len(MODES)]}
    batch_speedup = largest["batch"] / largest["off"]
    report(
        table,
        f"target: batch engine >= x{MIN_BATCH_SPEEDUP} over the reference "
        "engine at the largest volume, flat rows/sec across volumes",
        records_per_sec=largest["batch"],
        accuracy={
            "curve": curve,
            "batch_vs_off_at_max_volume": batch_speedup,
        },
    )
    assert batch_speedup >= MIN_BATCH_SPEEDUP
    # Linearity: steady-state throughput must not collapse with volume
    # (a quadratic splitter would show up exactly here).
    assert largest["batch"] >= smallest["batch"] * 0.5


def test_full_pipeline_leg(tmp_path_factory):
    simulation = TrafficGenerator(_ARCHIVE_CONFIG).generate()
    directory = tmp_path_factory.mktemp("scaling-archive")
    write_rotated_logs(simulation.logs, directory)
    rows = len(simulation.logs.ssl) + len(simulation.logs.x509)

    # Interleaved best-of-N, like bench_fast_ingest: each round times
    # every leg back-to-back so machine-load drift cancels out of the
    # ratios instead of polluting them (tiny smoke runs especially).
    rounds = 3 if SMOKE else 1

    legs = [("reference", 1, {"fast_path": "off", "pipeline": "off"})]
    for jobs in _jobs_ladder():
        legs.append(
            (f"engineered-j{jobs}", jobs, {"fast_path": "batch", "pipeline": "on"})
        )

    best = {name: float("inf") for name, _, _ in legs}
    campaigns = {}
    for _ in range(rounds):
        for name, jobs, flags in legs:
            started = time.perf_counter()
            campaigns[name] = analyze_directory(
                directory,
                bundle=simulation.trust_bundle,
                ct_log=simulation.ct_log,
                options=IngestOptions(fast_path=flags["fast_path"]),
                jobs=jobs,
                pipeline=flags["pipeline"],
            )
            best[name] = min(best[name], time.perf_counter() - started)

    # The speed is never allowed to bend the output.
    reference_tables = {
        name: str(p.finalize())
        for name, p in campaigns["reference"].partials.items()
    }
    for name, _, _ in legs[1:]:
        tables = {
            n: str(p.finalize()) for n, p in campaigns[name].partials.items()
        }
        assert tables == reference_tables, name

    reference_seconds = best["reference"]
    table = Table(
        "Full-pipeline leg: analyze_directory wall time",
        ["Configuration", "Seconds", "Speedup"],
    )
    table.add_row(
        "reference (off, serial, jobs=1)", f"{reference_seconds:.2f}", "x1.00"
    )

    curve = [{"jobs": 1, "leg": "reference", "seconds": reference_seconds}]
    best_seconds = float("inf")
    best_jobs = 1
    for name, jobs, _ in legs[1:]:
        seconds = best[name]
        curve.append({"jobs": jobs, "leg": "engineered", "seconds": seconds})
        table.add_row(
            f"engineered (batch, pipelined, jobs={jobs})",
            f"{seconds:.2f}",
            f"x{reference_seconds / seconds:.2f}",
        )
        if seconds < best_seconds:
            best_seconds, best_jobs = seconds, jobs

    speedup = reference_seconds / best_seconds
    report(
        table,
        f"target: full leg (batch decode + intra-shard pipelining + "
        f"jobs=N) >= x{MIN_FULL_LEG_SPEEDUP} over the reference serial "
        "path, byte-identical tables on every leg",
        records_per_sec=rows / best_seconds,
        accuracy={
            "curve": curve,
            "full_leg_speedup": speedup,
            "best_jobs": best_jobs,
            "rows": rows,
        },
    )
    assert speedup >= MIN_FULL_LEG_SPEEDUP
