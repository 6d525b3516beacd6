"""Perf regression gate for the fast ingest path.

Compares a freshly measured ``BENCH_fast_ingest.json`` against the
committed baseline and fails when the batch reader's records/sec falls
more than ``--tolerance`` below the baseline, or when the measured
speedup over the slow reader drops under ``--min-speedup``. Run by the
CI differential job after the smoke bench::

    python -m benchmarks.check_fast_ingest \
        --baseline benchmarks/BENCH_fast_ingest.json \
        --current  /tmp/bench/BENCH_fast_ingest.json

Ratios (speedup, relative regression) are used rather than absolute
rows/sec because CI machines vary; a ratio only moves when the code
does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Allowed fractional drop in records/sec vs the committed baseline.
DEFAULT_TOLERANCE = 0.30

#: The measured batch/slow ratio may never fall below this.
DEFAULT_MIN_SPEEDUP = 1.2


def _load_entry(path: Path) -> dict:
    document = json.loads(path.read_text(encoding="utf-8"))
    entries = [
        entry for entry in document.get("entries", [])
        if entry.get("test") == "test_fast_path_speedup"
    ]
    if not entries:
        raise SystemExit(f"{path}: no test_fast_path_speedup entry")
    return entries[0]


def check(
    baseline_path: Path,
    current_path: Path,
    tolerance: float = DEFAULT_TOLERANCE,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
) -> list[str]:
    """The list of regression findings (empty = gate passes)."""
    baseline = _load_entry(baseline_path)
    current = _load_entry(current_path)
    findings = []
    base_rps = baseline.get("records_per_sec") or 0.0
    cur_rps = current.get("records_per_sec") or 0.0
    floor = base_rps * (1.0 - tolerance)
    if cur_rps < floor:
        findings.append(
            f"records/sec regressed beyond {tolerance:.0%}: "
            f"{cur_rps:,.0f} < {floor:,.0f} "
            f"(baseline {base_rps:,.0f})"
        )
    speedup = (current.get("accuracy") or {}).get("speedup_vs_slow", 0.0)
    if speedup < min_speedup:
        findings.append(
            f"speedup over the slow reader fell to x{speedup:.2f} "
            f"(minimum x{min_speedup:.2f})"
        )
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional records/sec drop (default 0.30)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
        help="minimum batch/slow ratio (default 1.2)",
    )
    args = parser.parse_args(argv)
    findings = check(
        args.baseline, args.current, args.tolerance, args.min_speedup
    )
    for finding in findings:
        print(f"FAIL: {finding}", file=sys.stderr)
    if not findings:
        current = _load_entry(args.current)
        speedup = (current.get("accuracy") or {}).get("speedup_vs_slow")
        print(
            f"ok: {current.get('records_per_sec'):,.0f} records/sec, "
            f"speedup x{speedup:.2f}"
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
