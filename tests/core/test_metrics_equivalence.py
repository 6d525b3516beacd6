"""The metrics determinism contract: counters and histograms from a
``jobs=4`` campaign merge to exactly the values of the sequential
``jobs=1`` run. Timers and gauges measure the wall clock and the
schedule and are explicitly outside the equivalence (the jobs gauge
*should* differ).

Verified both at the API level (ShardExecutor) and end to end through
``repro analyze --metrics json``, whose document is the last stdout
line by contract.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.parallel import analyze_directory
from repro.core.study import CampusStudy
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import IngestOptions
from repro.zeek.files import write_rotated_logs

CONFIG = ScenarioConfig(seed=31, months=5, connections_per_month=150)


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    simulation = TrafficGenerator(CONFIG).generate()
    directory = tmp_path_factory.mktemp("equivalence-archive")
    write_rotated_logs(simulation.logs, directory)
    return simulation, directory


def _deterministic(state: dict) -> dict:
    return {"counters": state["counters"], "histograms": state["histograms"]}


def test_jobs4_counters_equal_jobs1(archive):
    simulation, directory = archive
    states = {}
    for jobs in (1, 4):
        campaign = analyze_directory(
            directory, bundle=simulation.trust_bundle,
            ct_log=simulation.ct_log, jobs=jobs,
        )
        assert campaign.metrics is not None
        states[jobs] = campaign.metrics.state_dict()
    assert _deterministic(states[1]) == _deterministic(states[4])
    assert states[1]["counters"], "campaign produced no counters"
    # The schedule-dependent side must NOT silently leak into counters.
    assert states[1]["gauges"]["supervisor.jobs"] == 1.0
    assert states[4]["gauges"]["supervisor.jobs"] == 4.0


def test_study_jobs_counters_match_inline_ingest_totals():
    """The sharded ingest counters agree with the rows the campaign
    actually contains (cross-check against the in-memory dataset)."""
    study = CampusStudy(
        config=CONFIG, jobs=2, options=IngestOptions(on_error="skip")
    )
    study.partials()
    counters = study.metrics.state_dict()["counters"]
    inline = CampusStudy(config=CONFIG)
    result = inline.run()
    assert counters["ingest.ssl.rows_ok"] == len(result.simulation.logs.ssl)
    assert counters["ingest.x509.rows_ok"] == len(result.simulation.logs.x509)
    assert counters["ingest.ssl.rows_dropped"] == 0


def _analyze_metrics_json(directory: Path, bundle_path: Path, jobs: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", str(directory),
         "--trust-bundle", str(bundle_path), "--jobs", str(jobs),
         "--table", "table1", "--metrics", "json"],
        capture_output=True, text=True, check=True,
    )
    last_line = completed.stdout.strip().splitlines()[-1]
    document = json.loads(last_line)
    assert document["format"] == "run-metrics/v1"
    return document


def test_cli_metrics_json_equivalence(archive, tmp_path):
    """End to end: `analyze --jobs 4 --metrics json` == `--jobs 1`."""
    simulation, directory = archive
    bundle_path = tmp_path / "trust_bundle.txt"
    with bundle_path.open("w") as out:
        for dn in sorted(simulation.trust_bundle.subject_dns):
            out.write(dn + "\n")
        for org in sorted(simulation.trust_bundle.organizations):
            out.write(f"org:{org}\n")
    sequential = _analyze_metrics_json(directory, bundle_path, jobs=1)
    parallel = _analyze_metrics_json(directory, bundle_path, jobs=4)
    assert _deterministic(sequential) == _deterministic(parallel)
    assert sequential["counters"]["supervisor.shards_completed"] == \
        CONFIG.months
