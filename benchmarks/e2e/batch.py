"""Batch workloads: repeated full campaigns, each in a fresh child.

Each iteration spawns ``child.py`` (one `repro analyze`-style process),
so every campaign pays interpreter start, imports and cold caches the
way an operator's run does. Set-up is the child's start-to-ready time;
the campaign is ``analyze_directory`` plus rendering all 24 tables, and
is reported as the median over iterations (its quartiles go to the
run's info). Iterations continue until ``seconds`` have passed, with at
least ``MIN_ITERATIONS``.

Times are reported in reference-host seconds. The shared host's speed
drifts by tens of percent over minutes, so every timed step is paired
with passes of ``calibrate.py``, a fixed workload that does not import
the program, and its raw time is scaled by ``REFERENCE_CALIBRATION_S``
over the mean pass time. Each child runs a pass itself before it
imports the program and another after its campaign, so the passes
share the campaign's process and bracket it; at ``jobs`` > 1,
``jobs`` - 1 more passes run beside each in fresh interpreters, one
per further core the campaign uses. The ``pack_archive`` runs are
bracketed by two passes. The raw medians and the host factor go to the
run's info.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from . import calibrate, metrics
from .metrics import Outcome
from .workloads import Inputs, Workload

CHILD = Path(__file__).resolve().with_name("child.py")
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120
#: `pack_archive` runs timed during campus-store set-up.
PACK_RUNS = 3
#: What ``calibrate.py`` takes on the reference host (the 2-vCPU VM the
#: bounds were recorded on, when quiet): the unit of every reported time.
REFERENCE_CALIBRATION_S = 0.25


def _host_factor(calibration_s: float) -> float:
    """Raw seconds → reference-host seconds, for a step timed next to a
    calibration pass that took ``calibration_s``."""
    return REFERENCE_CALIBRATION_S / calibration_s


def _pack_store(inputs: Inputs) -> tuple[Path, list[float]]:
    """Pack the archive ``PACK_RUNS`` times into fresh stores; returns
    the last store and every pack's wall time."""
    from repro.store import pack_archive

    times = []
    for index in range(PACK_RUNS):
        store = inputs.workdir / f"store{index}"
        started = time.perf_counter()
        pack_archive(inputs.archive, store)
        times.append(time.perf_counter() - started)
    return store, times


def _check(result: dict, reference: dict[str, str]) -> str | None:
    if result["degraded"]:
        return "campaign degraded (quarantined shards)"
    digests = result["digests"]
    if digests != reference:
        wrong = sorted(
            name for name in digests.keys() | reference.keys()
            if digests.get(name) != reference.get(name)
        )
        return f"tables differ from the reference: {', '.join(wrong)}"
    return None


def run(workload: Workload, inputs: Inputs, seconds: float, env: dict) -> Outcome:
    setup_extra = 0.0
    store = None
    pack_times: list[float] = []
    pack_calibrations: list[float] = []
    if workload.store:
        pack_calibrations += calibrate.collect(calibrate.spawn(1))
        store, pack_times = _pack_store(inputs)
        pack_calibrations += calibrate.collect(calibrate.spawn(1))
        setup_extra = metrics.median(pack_times) * _host_factor(
            metrics.median(pack_calibrations)
        )
    argv = [
        sys.executable, str(CHILD),
        str(inputs.archive), str(inputs.bundle_path), str(inputs.ct_path),
    ]
    if store is not None:
        argv += ["--store", str(store)]
    argv += ["--jobs", str(workload.jobs)]

    raw: list[tuple[float, float]] = []
    factors: list[float] = []
    rss_mb: list[float] = []
    errors: list[str] = []
    attempted = failed = 0
    started = time.perf_counter()
    while attempted < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        attempted += 1
        spawned_ns = time.monotonic_ns()
        # The child calibrates on its own core; at jobs > 1 the other
        # cores its campaign uses are calibrated at the same moment.
        # These passes are not the child's children, so its reaped-child
        # peak RSS stays its workers'.
        helpers = calibrate.spawn(workload.jobs - 1)
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, env=env,
                timeout=CHILD_TIMEOUT_S, cwd=inputs.workdir,
            )
        except subprocess.TimeoutExpired:
            failed += 1
            errors.append(f"iteration {attempted}: timed out")
            continue
        finally:
            helper_s = calibrate.collect(helpers)
        if proc.returncode != 0:
            failed += 1
            errors.append(
                f"iteration {attempted}: exit {proc.returncode}: "
                f"{proc.stderr.strip()[-500:]}"
            )
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        problem = _check(result, inputs.reference)
        if problem is not None:
            failed += 1
            errors.append(f"iteration {attempted}: {problem}")
            continue
        # The child's first calibration pass runs between spawn and
        # ready; it is not set-up.
        setup_s = (result["ready_ns"] - spawned_ns) / 1e9 - result["calibrating_s"]
        raw.append((setup_s, result["campaign_s"]))
        passes = [*result["calibration_s"], *helper_s]
        factors.append(_host_factor(sum(passes) / len(passes)))
        rss_mb.append(result["peak_rss_kb"] / 1024)

    setups = [setup * factor for (setup, _), factor in zip(raw, factors)]
    campaigns = [campaign * factor for (_, campaign), factor in zip(raw, factors)]
    values = {}
    info: dict = {"iterations": len(campaigns)}
    if campaigns:
        values = {
            "campaign_s": metrics.median(campaigns),
            "setup_s": metrics.median(setups) + setup_extra,
            "peak_rss_mb": metrics.median(rss_mb),
        }
        info["campaign_q1_s"], _, info["campaign_q3_s"] = metrics.quartiles(campaigns)
        info["raw_campaign_s"] = metrics.median(c for _, c in raw)
        info["host_factor"] = metrics.median(factors)
    info.update(
        campaign_s=campaigns, child_setup_s=setups, pack_s=pack_times,
        pack_calibration_s=pack_calibrations,
    )
    return Outcome(
        metrics=values, attempted=attempted, failed=failed, errors=errors, info=info,
    )
