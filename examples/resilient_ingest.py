#!/usr/bin/env python3
"""Fault-tolerant ingestion: corrupt an archive, quarantine the damage,
checkpoint the stream, and resume after a simulated crash.

Usage::

    python examples/resilient_ingest.py

Walks the full robustness story:

1. simulate a campaign and serialize it to Zeek TSV;
2. plant ~5% faults with the seeded :class:`LogCorruptor` (byte flips,
   garbage lines, a truncated tail, reordered columns, dropped x509
   rows, a missing ``#close``);
3. re-ingest under the ``quarantine`` policy and print the ingest-health
   report — every dropped line is accounted for exactly;
4. feed the surviving records through the :class:`StreamingAnalyzer`,
   kill it halfway, resume from the JSON checkpoint, and show the
   resumed aggregates match an uninterrupted run.
"""

import io
import tempfile
from pathlib import Path

from repro.core.report import render_ingest_health
from repro.core.streaming import StreamingAnalyzer
from repro.netsim import FaultPlan, LogCorruptor, ScenarioConfig, TrafficGenerator
from repro.zeek import (
    IngestOptions,
    IngestReport,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)


def main() -> None:
    print("1. Simulating a 6-month campaign...")
    simulation = TrafficGenerator(
        ScenarioConfig(seed=23, months=6, connections_per_month=500)
    ).generate()
    ssl_text = ssl_log_to_string(simulation.logs.ssl)
    x509_text = x509_log_to_string(simulation.logs.x509)

    print("2. Planting ~5% faults (seeded, ground-truth-aware)...")
    plan = FaultPlan.uniform(0.05, seed=23)
    ssl_bad, x509_bad, truth = LogCorruptor(plan).corrupt_logs(ssl_text, x509_text)
    print(
        f"   planted: {truth.flipped_lines} byte flips, "
        f"{truth.garbage_lines} garbage lines, "
        f"{truth.duplicated_lines} duplicates, "
        f"{truth.dropped_x509_rows} dropped x509 rows, "
        f"{truth.truncated_records} truncated tails"
    )

    print("3. Re-ingesting under the quarantine policy...\n")
    options = IngestOptions(on_error="quarantine", report=IngestReport())
    ssl = read_ssl_log(io.StringIO(ssl_bad), options.for_path("ssl.log"))
    x509 = read_x509_log(io.StringIO(x509_bad), options.for_path("x509.log"))
    report = options.report
    print(render_ingest_health(report).render())
    assert report.rows_dropped == truth.expected_reader_drops
    print(
        f"\n   exact accounting: {report.rows_dropped} drops reported == "
        f"{truth.expected_reader_drops} faults planted"
    )
    worst = report.quarantined[0]
    print(
        f"   first quarantined line: {worst.path}:{worst.line_number} "
        f"[{worst.category}] {worst.raw[:50]!r}..."
    )

    print("\n4. Streaming with a mid-run crash and checkpoint resume...")
    months = sorted({f"{r.ts:%Y-%m}" for r in ssl})
    halfway = len(months) // 2
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as tmp:
        checkpoint = Path(tmp) / "analyzer.json"

        def month_slice(analyzer: StreamingAnalyzer, label: str) -> None:
            analyzer.add_month(
                [r for r in ssl if f"{r.ts:%Y-%m}" == label],
                [r for r in x509 if f"{r.ts:%Y-%m}" == label],
            )

        first = StreamingAnalyzer(simulation.trust_bundle)
        for label in months[:halfway]:
            month_slice(first, label)
        first.write_checkpoint(checkpoint)
        print(f"   'crash' after {halfway}/{len(months)} months; "
              f"checkpoint: {checkpoint.stat().st_size} bytes")

        resumed = StreamingAnalyzer.from_checkpoint(
            simulation.trust_bundle, checkpoint
        )
        for label in months[halfway:]:
            month_slice(resumed, label)

        uninterrupted = StreamingAnalyzer(simulation.trust_bundle)
        for label in months:
            month_slice(uninterrupted, label)

    resumed_snapshot = resumed.to_snapshot()
    uninterrupted_snapshot = uninterrupted.to_snapshot()
    # The embedded metrics legitimately differ (the resumed analyzer
    # wrote a checkpoint; timers measure wall clock) — the analysis
    # state and the record counters must match exactly.
    resumed_metrics = resumed_snapshot.pop("metrics")
    uninterrupted_metrics = uninterrupted_snapshot.pop("metrics")
    assert resumed_snapshot == uninterrupted_snapshot
    assert resumed_metrics["counters"]["streaming.ssl_records"] == \
        uninterrupted_metrics["counters"]["streaming.ssl_records"]
    print(
        f"   resumed run matches uninterrupted run: "
        f"{resumed.connections_seen} connections, "
        f"{resumed.unique_certificates} unique certificates, "
        f"{resumed.dropped_dangling_fuid} dangling fuid refs "
        f"(x509 rows lost to planted drops, flips, and garbage)"
    )


if __name__ == "__main__":
    main()
