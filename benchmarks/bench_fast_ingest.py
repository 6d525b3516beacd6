"""Throughput of the batch decoder vs the reference reader.

Not a paper artifact — the acceptance gate of the fast ingest engine:
the vectorized batch engine (``auto``: whole-buffer splitting plus
columnar bulk decode) must deliver at least 2.2x records/sec over the
per-field dispatch path on the full benchmark campaign, with byte-identical
output (proven by ``tests/differential``; re-asserted cheaply here).
Its ratio is recorded as ``speedup_vs_slow`` (the scaling-curve record
in ``bench_scaling.py`` carries the volume sweep).

Measurement is *interleaved*: each round times both engines
back-to-back and the best round of each is kept, so slow drift in
machine load cancels instead of polluting the ratio.
"""

import io
import time

from repro.core.report import Table
from repro.zeek import (
    IngestOptions,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)

from .conftest import SMOKE, report

ROUNDS = 7

#: Smoke corpora are tiny (decoder compilation and cache warmup are a
#: visible fraction of the run), so CI only sanity-checks the direction;
#: the full campaign must meet the real acceptance bar.
MIN_BATCH_SPEEDUP = 1.3 if SMOKE else 2.2

MODES = ("off", "auto")


def _read_both(ssl_text: str, x509_text: str, mode: str):
    options = IngestOptions(fast_path=mode)
    ssl = read_ssl_log(io.StringIO(ssl_text), options)
    x509 = read_x509_log(io.StringIO(x509_text), options)
    return ssl, x509


def test_fast_path_speedup(simulation):
    ssl_text = ssl_log_to_string(simulation.logs.ssl)
    x509_text = x509_log_to_string(simulation.logs.x509)
    rows = len(simulation.logs.ssl) + len(simulation.logs.x509)

    best = {mode: float("inf") for mode in MODES}
    last = {}
    for _ in range(ROUNDS):
        for mode in MODES:
            started = time.perf_counter()
            last[mode] = _read_both(ssl_text, x509_text, mode)
            best[mode] = min(best[mode], time.perf_counter() - started)

    # The contract the speed is not allowed to bend: identical records.
    assert last["auto"] == last["off"]

    slow_rps = rows / best["off"]
    batch_rps = rows / best["auto"]
    batch_speedup = best["off"] / best["auto"]

    table = Table("Fast-path ingest throughput", ["Reader", "Value"])
    table.add_row("slow (rows/s)", f"{slow_rps:,.0f}")
    table.add_row("batch (rows/s)", f"{batch_rps:,.0f}")
    table.add_row("speedup (batch)", f"x{batch_speedup:.2f}")
    report(
        table,
        f"target: the vectorized batch engine delivers "
        f">={MIN_BATCH_SPEEDUP}x records/sec, with byte-identical output",
        records_per_sec=batch_rps,
        accuracy={
            "speedup_vs_slow": batch_speedup,
            "slow_records_per_sec": slow_rps,
        },
    )
    assert batch_speedup >= MIN_BATCH_SPEEDUP
