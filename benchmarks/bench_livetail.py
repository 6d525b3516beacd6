"""Sustained live-tail throughput and checkpoint pause.

Not a paper artifact — the acceptance gate of the `repro serve` path:
the incremental pipeline (tailer → decoder → enrich → partials) must
sustain ingest at a rate that keeps a poll loop comfortably ahead of a
campus-border Zeek writer, and a scheduled checkpoint — which holds the
daemon lock — must pause ingest for well under a second so the live
API stays responsive.

The replay drives a :class:`~repro.netsim.faults.LiveLogWriter` through
monthly rotations (the realistic steady-state fault), so the measured
rate includes rotation handling, not just append draining.
"""

import time

from repro.core.livetail import LiveAnalysisEngine, LogTailer
from repro.core.report import Table
from repro.netsim import LiveLogWriter

from .conftest import SMOKE, report

#: Rows per write burst between polls — large enough to amortize poll
#: overhead, small enough that the reader really does tail.
BURST = 2_000

MIN_ROWS_PER_SEC = 300 if SMOKE else 1_000
MAX_CHECKPOINT_PAUSE_S = 5.0 if SMOKE else 1.0


def test_livetail_throughput(simulation, tmp_path):
    writer = LiveLogWriter(simulation.logs, tmp_path / "logs")
    engine = LiveAnalysisEngine(simulation.trust_bundle)
    ssl_tailer = LogTailer(
        tmp_path / "logs", "ssl", report=engine.ssl_report
    )
    x509_tailer = LogTailer(
        tmp_path / "logs", "x509", report=engine.x509_report
    )

    total_rows = len(simulation.logs.ssl) + len(simulation.logs.x509)
    started = time.perf_counter()
    while writer.remaining:
        writer.write_next(BURST)
        engine.feed(ssl_tailer.poll(), x509_tailer.poll())
    writer.finalize()
    engine.feed(ssl_tailer.poll(), x509_tailer.poll())
    elapsed = time.perf_counter() - started

    assert engine.ssl_report.rows_ok == len(simulation.logs.ssl)
    assert engine.x509_report.rows_ok == len(simulation.logs.x509)
    rows_per_sec = total_rows / elapsed

    ckpt_started = time.perf_counter()
    checkpoint = engine.checkpoint(
        tmp_path / "ckpt.json",
        {"ssl": ssl_tailer.state_dict(), "x509": x509_tailer.state_dict()},
    )
    checkpoint_pause = time.perf_counter() - ckpt_started
    checkpoint_bytes = checkpoint.stat().st_size

    table = Table("Live-tail sustained ingest", ["Metric", "Value"])
    table.add_row("rows ingested", f"{total_rows}")
    table.add_row(
        "rotations handled",
        f"{ssl_tailer.rotations_seen + x509_tailer.rotations_seen}",
    )
    table.add_row("sustained rows/sec", f"{rows_per_sec:,.0f}")
    table.add_row("checkpoint pause", f"{checkpoint_pause * 1e3:.1f} ms")
    table.add_row("checkpoint size", f"{checkpoint_bytes:,} bytes")
    report(
        table,
        "23-month passive capture analyzed in batch; the live daemon "
        "must keep pace with the border tap in real time",
        records_per_sec=rows_per_sec,
        accuracy={
            "checkpoint_pause_s": checkpoint_pause,
            "checkpoint_bytes": checkpoint_bytes,
        },
    )
    assert rows_per_sec > MIN_ROWS_PER_SEC
    assert checkpoint_pause < MAX_CHECKPOINT_PAUSE_S
