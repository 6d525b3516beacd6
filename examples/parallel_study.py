#!/usr/bin/env python3
"""Whole-campaign analysis over multiprocessing shards.

Usage::

    python examples/parallel_study.py [jobs]

Runs the same campaign three ways — in-memory sequential, sharded
inline (jobs=1), and sharded over worker processes — and proves the
rendered tables are byte-identical. The sharded paths write the
campaign as a rotated monthly archive and fan the months out with the
:class:`repro.core.parallel.ShardExecutor`, exactly what an operator
with a multi-core box and a 23-month archive would do.
"""

import os
import sys
import tempfile
import time
from pathlib import Path

from repro.core import protocol
from repro.core.dataset import MtlsDataset
from repro.core.enrich import Enricher
from repro.core.parallel import analyze_directory
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek.files import write_rotated_logs


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else max(2, os.cpu_count() or 2)

    print("1. Simulating an 8-month campaign...")
    simulation = TrafficGenerator(
        ScenarioConfig(seed=31, months=8, connections_per_month=600)
    ).generate()

    print("2. In-memory sequential reference...")
    started = time.perf_counter()
    dataset = MtlsDataset.from_logs(simulation.logs)
    enriched = Enricher(
        bundle=simulation.trust_bundle, ct_log=simulation.ct_log
    ).enrich(dataset)
    partials = protocol.run_analyses(enriched, raw=dataset)
    reference = [p.finalize().render() for p in partials.values()]
    print(f"   {len(reference)} tables in {time.perf_counter() - started:.2f}s")

    with tempfile.TemporaryDirectory(prefix="repro-parallel-") as tmp:
        archive = Path(tmp)
        print(f"3. Writing rotated archive to {archive} ...")
        write_rotated_logs(simulation.logs, archive)

        for n in (1, jobs):
            label = "inline" if n == 1 else f"{n} processes"
            started = time.perf_counter()
            campaign = analyze_directory(
                archive, bundle=simulation.trust_bundle,
                ct_log=simulation.ct_log, jobs=n,
            )
            elapsed = time.perf_counter() - started
            tables = [t.render() for t in campaign.tables()]
            identical = tables == reference
            print(f"4. Sharded ({label}): {len(campaign.months)} shards in "
                  f"{elapsed:.2f}s — byte-identical: {identical}")
            assert identical

    print("\n5. Sample artifact from the merged partials:")
    print(campaign.table("table5").render())


if __name__ == "__main__":
    main()
