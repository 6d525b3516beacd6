"""The on-disk failure model, proven: a deterministic crash (or disk
fault) at EVERY instrumented point of the durable-write sequence leaves
each artifact as either the complete old state or the complete new
state — never a half state — and a restart recovers byte-identically.

Three artifact classes are driven through :class:`FaultyIO`:

- a generic durable file (the sequence itself, including keep_prev);
- a store pack (many files, manifest published last);
- a live-tail/streaming checkpoint (keep_prev + last-good fallback).
"""

import errno

import pytest

from repro.core.durable import (
    TMP_SUFFIX,
    durable_write,
    durable_write_json,
    load_checkpoint_json,
)
from repro.core.parallel import CampaignManifest
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.netsim.faults import FaultyIO, IoFault, SimulatedCrash
from repro.store import ColumnTable, MANIFEST_NAME, ensure_store, fsck, pack_archive
from repro.store.codec import StoreFormatError
from repro.zeek.files import write_rotated_logs

pytestmark = [pytest.mark.slow, pytest.mark.chaos]


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    logs = TrafficGenerator(
        ScenarioConfig(seed=29, months=3, connections_per_month=60)
    ).generate().logs
    write_rotated_logs(logs, directory)
    return directory


def _store_state(store_dir):
    """Every published file's bytes (temps, locks, and quarantine are
    bookkeeping, not store content)."""
    return {
        p.name: p.read_bytes()
        for p in sorted(store_dir.iterdir())
        if p.is_file()
        and not p.name.endswith(TMP_SUFFIX)
        and p.name != ".lock"
    }


@pytest.fixture(scope="module")
def clean_state(archive, tmp_path_factory):
    store = tmp_path_factory.mktemp("clean") / "store"
    pack_archive(archive, store)
    return _store_state(store)


#: One crash per instrumented operation of a single durable_write.
SEQUENCE_FAULTS = [
    IoFault(op="mkstemp"),
    IoFault(op="write"),
    IoFault(op="write", after_bytes=7),
    IoFault(op="fsync"),
    IoFault(op="close"),
    IoFault(op="replace"),
    IoFault(op="fsync_dir"),
]


class TestDurableSequence:
    @pytest.mark.parametrize(
        "fault", SEQUENCE_FAULTS, ids=lambda f: f"{f.op}@{f.after_bytes}"
    )
    def test_crash_leaves_old_or_new(self, tmp_path, fault):
        target = tmp_path / "artifact.bin"
        old, new = b"old state", b"new state!"
        target.write_bytes(old)
        with FaultyIO(fault).install():
            with pytest.raises(SimulatedCrash):
                durable_write(target, new)
        assert target.read_bytes() in (old, new)

    @pytest.mark.parametrize(
        "fault", SEQUENCE_FAULTS, ids=lambda f: f"{f.op}@{f.after_bytes}"
    )
    def test_crash_with_keep_prev_never_loses_both(self, tmp_path, fault):
        target = tmp_path / "ckpt.json"
        durable_write_json(target, {"v": 1}, keep_prev=True)
        with FaultyIO(fault).install():
            with pytest.raises(SimulatedCrash):
                durable_write_json(target, {"v": 2}, keep_prev=True)
        # The loader must always find a complete document: the new one,
        # the old one still in place, or the old one retained as .prev.
        document, _ = load_checkpoint_json(target)
        assert document in ({"v": 1}, {"v": 2})

    @pytest.mark.parametrize("mode", ["enospc", "eio"])
    def test_disk_faults_abort_cleanly_and_retry_succeeds(self, tmp_path, mode):
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"old")
        shim = FaultyIO(IoFault(op="write", mode=mode, after_bytes=2))
        with shim.install():
            with pytest.raises(OSError) as excinfo:
                durable_write(target, b"new content")
            assert excinfo.value.errno == getattr(errno, mode.upper())
            assert target.read_bytes() == b"old"
            assert not list(tmp_path.glob(f"*{TMP_SUFFIX}"))
            durable_write(target, b"new content")  # disk "recovered"
        assert target.read_bytes() == b"new content"


#: Crash points spread across a whole pack: first temp file, a torn
#: column write, mid-pack fsync/close/publish, the manifest's own
#: write/publish, and the final directory fsync (after which the new
#: state is already complete).
PACK_FAULTS = [
    IoFault(op="mkstemp"),
    IoFault(op="write", after_bytes=64, path=".col"),
    IoFault(op="fsync", index=1),
    IoFault(op="close", index=2),
    IoFault(op="replace", index=2),
    IoFault(op="write", path="manifest.json"),
    IoFault(op="replace", path="manifest.json"),
    IoFault(op="fsync_dir", path="", index=3),
]


class TestPackCrashMatrix:
    @pytest.mark.parametrize(
        "fault", PACK_FAULTS, ids=lambda f: f"{f.op}#{f.index}:{f.path or '*'}"
    )
    def test_crashed_pack_is_never_half_a_store(
        self, archive, tmp_path, clean_state, fault
    ):
        store = tmp_path / "store"
        with FaultyIO(fault).install():
            with pytest.raises(SimulatedCrash):
                pack_archive(archive, store)

        # Invariant 1: no torn column file is ever *published* — every
        # .col in the directory parses and verifies end to end (torn
        # bytes only ever live in a *.tmp orphan).
        for path in store.glob("*.col"):
            ColumnTable(path.read_bytes(), name=path.name)

        # Invariant 2: the manifest commits the store. Absent ⇒ the old
        # state ("no store here") — readers refuse it. Present ⇒ it was
        # published after every column file, so the store is complete.
        if (store / MANIFEST_NAME).exists():
            assert fsck(store).ok
        else:
            from repro.store import ColumnarStoreSource

            with pytest.raises(StoreFormatError, match="manifest"):
                ColumnarStoreSource(store)

        # Recovery: a restart packs the rest, sweeps the orphans, and
        # converges on the byte-identical clean store.
        ensure_store(archive, store)
        assert not list(store.glob(f"*{TMP_SUFFIX}"))
        assert _store_state(store) == clean_state
        assert fsck(store).ok

    def test_enospc_mid_pack_aborts_store_less(self, archive, tmp_path):
        store = tmp_path / "store"
        shim = FaultyIO(IoFault(op="write", mode="enospc", after_bytes=4096))
        with shim.install():
            with pytest.raises(OSError) as excinfo:
                pack_archive(archive, store)
        assert excinfo.value.errno == errno.ENOSPC
        # Clean abort: no manifest, no orphaned temp for the failed file.
        assert not (store / MANIFEST_NAME).exists()

    def test_repack_crash_preserves_readable_old_manifest(
        self, archive, tmp_path, clean_state
    ):
        """A crash *before the manifest publish* of a repack leaves the
        old manifest — and every old column file it describes is still
        byte-identical (same archive ⇒ deterministic identical bytes),
        so the store stays servable throughout."""
        store = tmp_path / "store"
        pack_archive(archive, store)
        with FaultyIO(IoFault(op="replace", path="manifest.json")).install():
            with pytest.raises(SimulatedCrash):
                pack_archive(archive, store)
        assert fsck(store).ok
        ensure_store(archive, store)
        assert _store_state(store) == clean_state


class TestOrphanSweeps:
    def test_restarted_pack_sweeps_orphans(self, archive, tmp_path):
        store = tmp_path / "store"
        with FaultyIO(IoFault(op="fsync", index=1)).install():
            with pytest.raises(SimulatedCrash):
                pack_archive(archive, store)
        assert list(store.glob(f"*{TMP_SUFFIX}"))  # the dead writer's mess
        pack_archive(archive, store)
        assert not list(store.glob(f"*{TMP_SUFFIX}"))

    def test_campaign_manifest_sweeps_on_open(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        orphan = run_dir / f"manifest.json.abc{TMP_SUFFIX}"
        orphan.write_bytes(b"half")
        CampaignManifest(run_dir, "fingerprint")
        assert not orphan.exists()
