"""Chaos test for `repro serve`, the real subprocess.

The acceptance scenario from the issue: a daemon tails a directory a
fault-injecting writer keeps rotating (≥3 times), copytruncating, and
partially writing into; mid-run the daemon is SIGKILLed and restarted
with ``--resume``; at the end its tables — fetched over the HTTP API —
are byte-identical to a batch ``analyze`` of the concatenated archive,
with exact ingest accounting (no row lost, none read twice). A second
leg forces overload and asserts the sampled-table flags and correction
factors surface in both the API response and the run metrics.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.cli import _write_trust_bundle, load_trust_bundle
from repro.core.parallel import analyze_directory
from repro.netsim import LiveLogWriter, ScenarioConfig, TrafficGenerator
from repro.zeek import IngestOptions

pytestmark = [pytest.mark.slow, pytest.mark.chaos]


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(months=3, connections_per_month=150, seed=59)
    ).generate()


@pytest.fixture(scope="module")
def bundle_file(simulation, tmp_path_factory):
    path = tmp_path_factory.mktemp("trust") / "bundle.txt"
    _write_trust_bundle(simulation.trust_bundle, path)
    return path


def _serve(directory, bundle_file, checkpoint, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(directory),
            "--trust-bundle", str(bundle_file),
            "--checkpoint", str(checkpoint),
            "--checkpoint-interval", "0.2",
            "--poll-interval", "0.01",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    assert banner.startswith("livetail: serving on http://"), (
        banner, proc.stderr.read() if proc.poll() is not None else ""
    )
    base = banner.split()[-1].strip()
    return proc, base


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read())


def _wait(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met before timeout")


def _wait_rows(base, ssl_rows, x509_rows):
    def caught_up():
        health = _get(base, "/healthz")
        return (
            health["rows"]["ssl"] >= ssl_rows
            and health["rows"]["x509"] >= x509_rows
        )

    _wait(caught_up)


class TestChaosEquivalence:
    def test_rotations_truncation_kill_resume(
        self, simulation, bundle_file, tmp_path
    ):
        logdir = tmp_path / "logs"
        ckpt = tmp_path / "livetail-checkpoint.json"
        writer = LiveLogWriter(simulation.logs, logdir)
        writer.write_next(40)

        proc, base = _serve(logdir, bundle_file, ckpt)
        try:
            health = _get(base, "/healthz")
            assert health["status"] == "ok"

            # Faults, phase one: a forced rotation, a copytruncate
            # (synchronized through /healthz before more rows follow),
            # and a mid-write partial line.
            writer.write_next(60)
            writer.rotate("ssl")
            writer.write_next(60)
            # The daemon must have consumed the live bytes for the
            # truncation's size regression to be observable — same
            # ordering a real logrotate gives a steady-state tailer.
            ssl_written = sum(
                1 for kind, _, _ in writer._events[:writer._cursor]
                if kind == "ssl"
            )
            _wait(
                lambda: _get(base, "/healthz")["rows"]["ssl"] >= ssl_written
            )
            writer.truncate("ssl")
            _wait(lambda: _get(base, "/healthz")["truncations"]["ssl"] >= 1)
            writer.partial_write()
            writer.write_next(60)
            rows_before_kill = writer._cursor
            ssl_so_far = sum(
                1 for kind, _, _ in writer._events[:rows_before_kill]
                if kind == "ssl"
            )
            _wait(
                lambda: _get(base, "/healthz")["rows"]["ssl"] >= ssl_so_far
            )
            # Force one checkpoint we know covers the rows so far, then
            # SIGKILL — no cleanup, no final checkpoint.
            _get_post(base, "/checkpoint")
            proc.send_signal(signal.SIGKILL)
            proc.communicate(timeout=10)  # reaps it and closes its pipes
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

        # Restart with --resume; finish the capture (more rotations come
        # from month boundaries and the final rotation of both streams).
        proc, base = _serve(logdir, bundle_file, ckpt, "--resume")
        try:
            assert _get(base, "/healthz")["resumed"] is True
            writer.write_next(len(writer._events))
            writer.finalize()
            _wait_rows(
                base, len(simulation.logs.ssl), len(simulation.logs.x509)
            )

            health = _get(base, "/healthz")
            total_rotations = (
                health["rotations"]["ssl"] + health["rotations"]["x509"]
            )
            assert writer.rotations >= 3
            assert health["truncations"]["ssl"] >= 0  # survived the restart
            assert total_rotations >= 1  # this process saw the tail end

            # Exactly-once accounting: the daemon's merged ingest equals
            # the batch read of the archive, row for row, file for file.
            live_ingest = _get(base, "/ingest")
            listing = _get(base, "/tables")["tables"]
            assert all(entry["sampling"] is None for entry in listing)
            live_tables = {
                entry["name"]: _get(base, "/tables/" + entry["name"])
                for entry in listing
            }

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        campaign = analyze_directory(
            logdir, bundle=load_trust_bundle(bundle_file),
            options=IngestOptions(on_error="skip"),
        )
        batch = campaign.ingest
        merged = {
            field: (
                live_ingest["ssl"][field] + live_ingest["x509"][field]
            )
            for field in (
                "rows_ok", "rows_dropped", "files_read",
                "files_missing_close", "truncated_final_lines",
            )
        }
        assert merged == {
            "rows_ok": batch.rows_ok,
            "rows_dropped": batch.rows_dropped,
            "files_read": batch.files_read,
            "files_missing_close": batch.files_missing_close,
            "truncated_final_lines": batch.truncated_final_lines,
        }
        from repro.core.export import table_to_dict

        for name in campaign.partials:
            expected = table_to_dict(campaign.table(name))
            got = dict(live_tables[name])
            got.pop("name")
            got.pop("sampling")
            assert got == expected, f"table {name} diverged from batch"

        # The final (SIGTERM-path) checkpoint is loadable and complete.
        from repro.core.durable import load_checkpoint_json
        from repro.core.livetail import LiveAnalysisEngine

        document, used_prev = load_checkpoint_json(ckpt)
        assert not used_prev
        restored = LiveAnalysisEngine.from_checkpoint_doc(
            load_trust_bundle(bundle_file), document
        )
        assert restored.connections_seen == sum(
            1 for r in simulation.logs.ssl if r.established
        )
        for name, entry in restored.tables().items():
            assert entry["table"].render() == campaign.table(name).render()


class TestOverloadFlagging:
    def test_sampled_tables_flagged_in_api_and_metrics(
        self, simulation, bundle_file, tmp_path
    ):
        logdir = tmp_path / "logs"
        writer = LiveLogWriter(simulation.logs, logdir)
        writer.finalize()  # the whole capture lands in one poll: overload
        proc, base = _serve(
            logdir, bundle_file, tmp_path / "ckpt.json",
            "--overload-rows", "20", "--reservoir", "16",
        )
        try:
            _wait_rows(
                base, len(simulation.logs.ssl), len(simulation.logs.x509)
            )
            health = _get(base, "/healthz")
            assert health["sampled_tables"]
            sampled = health["sampled_tables"][0]
            table = _get(base, "/tables/" + sampled)
            assert table["sampling"]["sampled"] is True
            assert table["sampling"]["correction"] > 1.0
            _get_post(base, "/checkpoint")  # publishes sampling gauges
            metrics = _get(base, "/metrics")
            key = f"livetail.sampled.{sampled}.correction"
            assert metrics["gauges"][key] > 1.0
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def _get_post(base, path):
    request = urllib.request.Request(base + path, data=b"", method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())
