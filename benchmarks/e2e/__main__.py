"""End-to-end benchmark with per-layer attribution.

Run from the repository root::

    python -m benchmarks.e2e run [--workload NAME] [--seed N] [--trace [0|1]]
                                 [--smoke] [--out FILE]
    python -m benchmarks.e2e compare A.jsonl B.jsonl
    python -m benchmarks.e2e summarize TRACE.jsonl

``run`` generates each workload's inputs from the seed, measures it for
``run_seconds`` of ``BENCHMARK.json`` (``SMOKE_SECONDS`` with
``--smoke``), checks every output against reference digests, prints
every metric with its unit, and ends with one JSON result line. With
``--trace`` it reports the per-layer metrics instead. ``--out`` appends
one record per workload run (spans included when traced); ``compare``
and ``summarize`` read those files. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
RECORD_FORMAT = "e2e-run/v1"
SMOKE_SECONDS = 2.0


def _run_one(name: str, args, env: dict) -> dict:
    from . import batch, layers, metrics, workloads

    workload = WORKLOADS[name]
    workdir = ROOT / ".e2e_work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = workloads.generate(workload, args.seed, args.smoke, workdir)
        inputs.reference = workloads.reference_digests(inputs)
        if args.trace:
            outcome = layers.run(
                workload, inputs, layers.SMOKE_ROUNDS if args.smoke else layers.ROUNDS
            )
        else:
            outcome = batch.run(workload, inputs, args.seconds, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    complete = all(metric in outcome.metrics for metric in spec)
    result = {
        "correct": outcome.failed == 0 and complete,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics.emit(outcome.metrics, spec) if complete else {},
    }
    print(f"== {name} (seed {args.seed}, {args.seconds:g} s"
          f"{', trace' if args.trace else ''}{', smoke' if args.smoke else ''})")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40} {entry['value']:>14.6g} {entry['unit']}")
    for key, value in outcome.info.items():
        if not isinstance(value, list):
            print(f"  ({key}: {value:.6g})")
    print(f"  attempted {outcome.attempted}, failed {outcome.failed} "
          f"(failed_frac {outcome.failed / max(outcome.attempted, 1):.3g})")
    for error in outcome.errors:
        print(f"  error: {error}", file=sys.stderr)
    if args.out is not None:
        record = {
            "format": RECORD_FORMAT, "workload": name, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke, "trace": bool(args.trace),
            "result": result, "info": outcome.info, "errors": outcome.errors,
            "spans": outcome.spans,
        }
        with args.out.open("a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    return result


def cmd_run(args) -> int:
    from . import metrics

    fixed = SMOKE_SECONDS if args.smoke else metrics.load_benchmark()["run_seconds"]
    if args.seconds is not None and args.seconds != fixed:
        print(f"error: --seconds {args.seconds:g}: the run length is fixed at {fixed:g} s "
              "(BENCHMARK.json run_seconds, or the smoke length)", file=sys.stderr)
        return 2
    args.seconds = fixed
    names = [args.workload] if args.workload else list(WORKLOADS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    ok = True
    for name in names:
        result = _run_one(name, args, env)
        ok = ok and result["correct"]
        # The last stdout line is the (last) workload's result.
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


def cmd_compare(args) -> int:
    from .report import compare

    return compare(args.a, args.b)


def cmd_summarize(args) -> int:
    from .report import summarize

    return summarize(args.trace_file)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", default=None, choices=list(WORKLOADS),
                     help="one workload (default: all, in turn)")
    run.add_argument("--seed", type=int, default=7)
    # Runners of BENCHMARK.json's command pass its run_seconds back;
    # any other length is refused, so every run measures the same time.
    run.add_argument("--seconds", type=float, default=None,
                     help="must equal BENCHMARK.json run_seconds "
                          f"({SMOKE_SECONDS:g} with --smoke)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                     help="report per-layer metrics from a layer-by-layer replay")
    run.add_argument("--smoke", action="store_true",
                     help="tiny corpora: same code paths and output schema, "
                          "numbers not comparable with full runs")
    run.add_argument("--out", type=Path, default=None,
                     help="append one JSON record per workload run to FILE")
    run.set_defaults(handler=cmd_run)
    compare = sub.add_parser("compare", help="compare two sets of run records")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    compare.set_defaults(handler=cmd_compare)
    summarize = sub.add_parser("summarize", help="per-layer table of traced runs")
    summarize.add_argument("trace_file", type=Path)
    summarize.set_defaults(handler=cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
