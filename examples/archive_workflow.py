#!/usr/bin/env python3
"""Operator workflow: rotated log archives end to end.

Usage::

    python examples/archive_workflow.py [archive_dir]

Simulates a short campaign, writes it out as the rotated, gzipped log
tree a real Zeek deployment produces (`ssl.YYYY-MM.log.gz`, ...), then
reloads the archive from disk and runs the analysis — the exact workflow
an operator pointing this library at their own log archive would follow.
"""

import sys
import tempfile
from pathlib import Path

from repro.core import prevalence, protocol
from repro.core.dataset import MtlsDataset
from repro.core.enrich import Enricher
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek.files import read_logs_directory, write_rotated_logs


def main() -> None:
    if len(sys.argv) > 1:
        archive = Path(sys.argv[1])
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-archive-")
        archive = Path(cleanup.name)

    print("1. Simulating a 6-month campaign...")
    result = TrafficGenerator(
        ScenarioConfig(seed=19, months=6, connections_per_month=700)
    ).generate()

    print(f"2. Writing rotated gzip archive to {archive} ...")
    written = write_rotated_logs(result.logs, archive, compress=True)
    for path in written:
        print(f"   {path.name}  ({path.stat().st_size} bytes)")

    print("3. Reloading the archive from disk...")
    reloaded = read_logs_directory(archive)
    print(f"   {len(reloaded.ssl)} ssl rows, {len(reloaded.x509)} x509 rows")

    print("4. Running the analysis on the reloaded logs...\n")
    enricher = Enricher(bundle=result.trust_bundle, ct_log=result.ct_log)
    enriched = enricher.enrich(MtlsDataset.from_logs(reloaded))
    series = protocol.run_analyses(enriched, ["figure1"])["figure1"].result()
    print(prevalence.render_monthly_share(series).render())

    if cleanup is not None:
        cleanup.cleanup()


if __name__ == "__main__":
    main()
