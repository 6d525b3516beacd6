"""Sequential vs sharded-parallel campaign analysis.

Not a paper artifact — validates the ShardExecutor's contract on the
benchmark campaign: per-month shards analyzed over 4 worker processes
must produce byte-identical tables to the inline sequential run, and on
a machine with enough cores the fan-out must actually pay for its
serialization overhead (>= 2x at 4 workers). The speedup assertion is
gated on the host's core count — a 1-CPU container can only verify
equivalence, which is the correctness half of the claim.

Set ``REPRO_BENCH_SMOKE=1`` to run on a small campaign (CI smoke mode):
equivalence is still asserted end to end; timing is only reported.
"""

import os
import time

import pytest

from repro.core.parallel import analyze_directory
from repro.core.report import Table
from repro.netsim import TrafficGenerator
from repro.zeek.files import write_rotated_logs

from .conftest import BENCH_CONFIG, SMOKE, report

WORKERS = 4


@pytest.fixture(scope="module")
def bench_world(tmp_path_factory):
    simulation = TrafficGenerator(BENCH_CONFIG).generate()
    directory = tmp_path_factory.mktemp("bench-rotated")
    write_rotated_logs(simulation.logs, directory)
    return simulation, directory


def _timed_run(directory, simulation, jobs: int):
    started = time.perf_counter()
    campaign = analyze_directory(
        directory, bundle=simulation.trust_bundle,
        ct_log=simulation.ct_log, jobs=jobs,
    )
    elapsed = time.perf_counter() - started
    return campaign, elapsed


def test_parallel_study_speedup_and_equivalence(bench_world):
    simulation, directory = bench_world
    sequential, t_seq = _timed_run(directory, simulation, jobs=1)
    parallel, t_par = _timed_run(directory, simulation, jobs=WORKERS)

    seq_tables = [t.render() for t in sequential.tables()]
    par_tables = [t.render() for t in parallel.tables()]
    assert par_tables == seq_tables, "parallel run diverged from sequential"

    speedup = t_seq / max(1e-9, t_par)
    cores = os.cpu_count() or 1
    table = Table(
        "Benchmark: sequential vs sharded-parallel campaign analysis",
        ["Mode", "Wall time (s)", "Speedup"],
    )
    table.add_row("sequential (jobs=1)", f"{t_seq:.2f}", "1.00x")
    table.add_row(f"parallel (jobs={WORKERS})", f"{t_par:.2f}", f"{speedup:.2f}x")
    table.add_note(f"{len(parallel.months)} monthly shards, {cores} cores, "
                   f"smoke={SMOKE}")
    table.add_note("tables byte-identical across modes")
    rows = len(simulation.logs.ssl) + len(simulation.logs.x509)
    report(table, "no paper artifact; executor contract: identical tables, "
                  ">=2x at 4 workers given >=4 cores",
           records_per_sec=rows / max(1e-9, t_par),
           accuracy={"speedup": speedup, "tables_identical": True})

    if not SMOKE and cores >= WORKERS:
        assert speedup >= 2.0, (
            f"expected >=2x speedup at {WORKERS} workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )
