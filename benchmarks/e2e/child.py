"""One batch campaign in a fresh interpreter, the way `repro analyze` runs.

The parent spawns this script once per iteration, with the source tree
on ``PYTHONPATH``::

    python child.py ARCHIVE BUNDLE LEDGER [--store DIR] [--jobs N]

It first times one ``calibrate.py`` pass, before anything of the
program is loaded, and resets its peak RSS. Then it imports the
program, loads the registry, the trust bundle and the CT ledger,
records the moment it is ready on the system-wide monotonic clock (so
the parent can subtract its own spawn time), runs ``analyze_directory``
with default settings, renders every table, and reads its peak RSS.
Last, with the campaign dropped and the program's remaining objects
frozen out of the collector's reach, it times a second pass, with
``--jobs`` - 1 more in fresh interpreters beside it. The passes bracket
the campaign, so the parent can scale this process's times to the
reference host. It prints one JSON line::

    {"calibration_s": [before, after, ...], "calibrating_s": ...,
     "ready_ns": ..., "campaign_s": ..., "peak_rss_kb": ...,
     "degraded": false, "digests": {"table1": "<sha256>", ...}}

``calibrating_s`` is the time spent on the first pass and the reset,
which the parent takes out of set-up. Only that and the program run
before ``ready_ns``; the digest helpers below are shared with the
parent, which computes the reference digests with the same code.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time


class CtLedger:
    """The CT lookup the interception filter needs, loaded from a JSON
    ledger of ``{domain: [issuer DN, ...]}``."""

    def __init__(self, by_domain: dict[str, list[str]]) -> None:
        self._by_domain = by_domain

    def knows_domain(self, domain: str) -> bool:
        return domain.lower() in self._by_domain

    def issuers_for(self, domain: str) -> list[str]:
        return self._by_domain.get(domain.lower(), [])


def load_ledger(path: str) -> CtLedger:
    with open(path, encoding="utf-8") as source:
        return CtLedger(json.load(source))


def table_digest(payload: dict) -> str:
    """sha256 of one table in the export shape (title, headers, rows,
    notes) — the shape ``GET /tables/<name>`` serves, minus its name and
    sampling keys."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def table_digests(names, tables) -> dict[str, str]:
    """Registry name → digest for rendered tables given in name order."""
    from repro.core.export import table_to_dict

    return {
        name: table_digest(table_to_dict(table))
        for name, table in zip(names, tables, strict=True)
    }


def campaign_digests(campaign) -> dict[str, str]:
    """Digests of every table of a ``CampaignResult``."""
    return table_digests(campaign.partials, campaign.tables())


def reset_peak_rss() -> None:
    """Restart this process's peak RSS from its current RSS, so the
    calibration pass's heap is not counted as the program's."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
        clear_refs.write("5")


def peak_rss_kb() -> int:
    """This process's peak RSS since ``reset_peak_rss`` plus the largest
    reaped child's (the executor's workers at jobs > 1)."""
    import resource

    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )


def main(argv: list[str]) -> int:
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("archive")
    parser.add_argument("bundle")
    parser.add_argument("ledger")
    parser.add_argument("--store", default=None)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    calibrating_started = time.perf_counter()
    from calibrate import collect, measure, spawn

    calibration_s = [measure()]
    gc.collect()
    reset_peak_rss()
    calibrating_s = time.perf_counter() - calibrating_started

    from repro.cli import load_trust_bundle
    from repro.core import protocol
    from repro.core.parallel import analyze_directory

    protocol.load_default_analyses()
    bundle = load_trust_bundle(Path(args.bundle))
    ct_log = load_ledger(args.ledger)
    ready_ns = time.monotonic_ns()

    started = time.perf_counter()
    campaign = analyze_directory(
        args.archive, bundle=bundle, ct_log=ct_log,
        store=args.store, jobs=args.jobs,
    )
    tables = campaign.tables()
    campaign_s = time.perf_counter() - started

    result = {
        "ready_ns": ready_ns,
        "campaign_s": campaign_s,
        "peak_rss_kb": peak_rss_kb(),
        "degraded": bool(campaign.health is not None and campaign.health.degraded),
        "digests": table_digests(campaign.partials, tables),
    }
    # Frozen objects are skipped by every later collection, so what the
    # program leaves behind cannot slow the second pass's collections.
    del campaign, tables
    gc.collect()
    gc.freeze()
    # Spawned after the peak RSS is read, so the extra passes on the
    # campaign's other cores never count as its workers.
    helpers = spawn(args.jobs - 1)
    calibration_s.append(measure())
    calibration_s += collect(helpers)
    print(json.dumps({
        "calibration_s": calibration_s, "calibrating_s": calibrating_s, **result,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
