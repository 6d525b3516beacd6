"""Smoke test of the end-to-end benchmark.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``. Every workload runs once untraced and once traced on
the tiny ``--smoke`` corpora, through the same command the full
benchmark uses; the output must match ``BENCHMARK.json`` metric for
metric, with no failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import metrics
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _command(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _smoke(tmp_path: Path, *extra: str) -> list[dict]:
    out = tmp_path / "records.jsonl"
    proc = _command("run", "--smoke", "--out", str(out), *extra)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return [json.loads(line) for line in out.read_text().splitlines()]


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(entries: list[dict]) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_declares_what_the_code_measures(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == (
        metrics.PER_LAYER
    )


def test_every_end_to_end_metric_on_every_workload(tmp_path, declared):
    records = _smoke(tmp_path)
    assert [r["workload"] for r in records] == list(WORKLOADS)
    for record in records:
        result = record["result"]
        assert result["correct"], record["errors"]
        assert result["failed"] == 0 and result["attempted"] > 0
        units = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert units == _units(declared["end_to_end"])
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    compared = _command("compare", str(tmp_path / "records.jsonl"), str(tmp_path / "records.jsonl"))
    assert compared.returncode == 0, compared.stdout
    assert "regressed" not in compared.stdout


def test_every_per_layer_metric_and_attribution(tmp_path, declared):
    records = _smoke(tmp_path, "--trace")
    assert [r["workload"] for r in records] == list(WORKLOADS)
    for record in records:
        result = record["result"]
        assert result["correct"], record["errors"]
        assert result["failed"] == 0
        units = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert units == _units(declared["per_layer"])
        attributed = result["metrics"]["trace.attributed_frac"]["value"]
        assert 0.9 <= attributed <= 1.1, record["workload"]
        assert record["spans"]
    summary = _command("summarize", str(tmp_path / "records.jsonl"))
    assert summary.returncode == 0
    assert summary.stdout.count("trace.attributed_frac") == len(WORKLOADS)
