"""Workload definitions and seeded input generation.

Every workload's inputs are generated from ``--seed`` alone, written as
the files the measured program receives — a rotated archive,
``trust_bundle.txt`` and a CT ledger — and checked against reference
table digests computed once per run from the reference settings
(``fast_path="off"``, ``pipeline="off"``, ``jobs=1``, TSV source).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .child import CtLedger, campaign_digests, load_ledger


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    store: bool = False
    jobs: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("campus-tsv", "campus"),
        Workload("campus-store", "campus", store=True),
        Workload("federation-j2", "federation", jobs=2),
    )
}


@dataclass
class Inputs:
    """Everything a workload run needs, all under ``workdir``."""

    workdir: Path
    archive: Path
    bundle_path: Path
    bundle: object
    ct_path: Path
    ct_log: CtLedger
    reference: dict[str, str] | None = None


def _simulate(workload: Workload, seed: int, smoke: bool):
    from repro.netsim import ScenarioConfig, TrafficGenerator

    months = 4 if smoke else 23
    if workload.scenario == "campus":
        cpm = 250 if smoke else 1500
        config = ScenarioConfig(seed=seed, months=months, connections_per_month=cpm)
        return TrafficGenerator(config).generate()
    from repro.netsim.compose import ScenarioGenerator
    from repro.netsim.scenarios import load_spec

    # Half the library size keeps one jobs=2 campaign near 2.5 s, so a
    # run holds about ten iterations.
    spec = load_spec(workload.scenario).scaled(
        seed=seed, months=months if smoke else None,
        scale=0.1 if smoke else 0.5,
    )
    return ScenarioGenerator(spec).generate()


def write_ct_ledger(ct_log, logs, path: Path) -> None:
    """The CT entries of every SNI the capture requests — exactly the
    domains the interception filter looks up."""
    ledger = {}
    for row in logs.ssl:
        if row.server_name:
            domain = row.server_name.lower()
            if domain not in ledger and ct_log.knows_domain(domain):
                ledger[domain] = ct_log.issuers_for(domain)
    path.write_text(json.dumps(ledger, sort_keys=True), encoding="utf-8")


def generate(workload: Workload, seed: int, smoke: bool, workdir: Path) -> Inputs:
    """Simulate the workload's scenario and write its input files."""
    from repro.cli import _write_trust_bundle, load_trust_bundle
    from repro.zeek.files import write_rotated_logs

    result = _simulate(workload, seed, smoke)
    workdir.mkdir(parents=True, exist_ok=True)
    archive = workdir / "archive"
    bundle_path = workdir / "trust_bundle.txt"
    _write_trust_bundle(result.trust_bundle, bundle_path)
    write_rotated_logs(result.logs, archive)
    ct_path = workdir / "ct_ledger.json"
    write_ct_ledger(result.ct_log, result.logs, ct_path)
    return Inputs(
        workdir=workdir,
        archive=archive,
        bundle_path=bundle_path,
        bundle=load_trust_bundle(bundle_path),
        ct_path=ct_path,
        ct_log=load_ledger(str(ct_path)),
    )


def reference_digests(inputs: Inputs) -> dict[str, str]:
    """Table digests from the reference settings over the TSV archive."""
    from repro.core.parallel import analyze_directory
    from repro.zeek import IngestOptions

    campaign = analyze_directory(
        inputs.archive,
        bundle=inputs.bundle,
        ct_log=inputs.ct_log,
        options=IngestOptions(fast_path="off"),
        pipeline="off",
        jobs=1,
    )
    return campaign_digests(campaign)
