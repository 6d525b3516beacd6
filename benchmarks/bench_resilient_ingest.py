"""Overhead of the resilient reader on clean input.

Not a paper artifact — justifies defaulting operators to `skip` on
rotated archives: on a fault-free campaign the lenient bookkeeping
(an IngestReport riding along every row) should cost well under 10%
over the strict fast path, so resilience is not a throughput trade.
"""

import io
import time

from repro.core.report import Table
from repro.zeek import (
    ErrorPolicy,
    IngestOptions,
    IngestReport,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)

from .conftest import report

ROUNDS = 5


def _time_read(ssl_text: str, x509_text: str, policy: ErrorPolicy) -> float:
    """Best-of-ROUNDS wall time to re-ingest the serialized campaign."""
    best = float("inf")
    rows = 0
    for _ in range(ROUNDS):
        options = IngestOptions(
            on_error=policy, report=IngestReport() if policy.lenient else None
        )
        started = time.perf_counter()
        ssl = read_ssl_log(io.StringIO(ssl_text), options)
        x509 = read_x509_log(io.StringIO(x509_text), options)
        best = min(best, time.perf_counter() - started)
        rows = len(ssl) + len(x509)
    assert rows > 0
    return best


def test_skip_mode_overhead_on_clean_logs(simulation):
    ssl_text = ssl_log_to_string(simulation.logs.ssl)
    x509_text = x509_log_to_string(simulation.logs.x509)
    row_count = ssl_text.count("\n") + x509_text.count("\n")

    strict = _time_read(ssl_text, x509_text, ErrorPolicy.STRICT)
    skip = _time_read(ssl_text, x509_text, ErrorPolicy.SKIP)
    overhead = skip / max(1e-9, strict)

    table = Table("Resilient-ingest overhead (clean input)", ["Reader", "Value"])
    table.add_row("strict (rows/s)", f"{row_count / strict:,.0f}")
    table.add_row("skip (rows/s)", f"{row_count / skip:,.0f}")
    table.add_row("skip/strict time", f"x{overhead:.3f}")
    report(table, "target: lenient bookkeeping costs <10% on clean input",
           records_per_sec=row_count / skip,
           accuracy={"skip_over_strict": overhead})

    # Loose CI-stable bound; the interesting number is printed above.
    assert overhead < 1.35
