"""Concurrent access under advisory locking: racing packs serialize,
readers never see a torn store mid-repack, a SIGKILLed holder's lock
evaporates (stale takeover), and a second `repro serve` on the same
checkpoint is refused."""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.livetail import LiveTailDaemon
from repro.core.locks import FileLock
from repro.netsim import LiveLogWriter, ScenarioConfig, TrafficGenerator
from repro.store import ColumnarStoreSource, fsck, pack_archive
from repro.store.source import store_lock
from repro.zeek import IngestOptions
from repro.zeek.files import write_rotated_logs

pytestmark = [pytest.mark.slow, pytest.mark.chaos]

OPTIONS = IngestOptions()


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(seed=31, months=2, connections_per_month=60)
    ).generate()


@pytest.fixture(scope="module")
def archive(simulation, tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    write_rotated_logs(simulation.logs, directory)
    return directory


def _pack_worker(archive, store, barrier):
    barrier.wait()  # maximize overlap: both packs start together
    pack_archive(archive, store)


def _lock_holder(lock_path, acquired, release):
    lock = FileLock(lock_path)
    lock.acquire(exclusive=True, op="pack")
    acquired.set()
    release.wait(30)  # parent SIGKILLs us instead


class TestRacingPacks:
    def test_two_packs_serialize_to_a_clean_store(self, archive, tmp_path):
        store = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        workers = [
            ctx.Process(target=_pack_worker, args=(archive, store, barrier))
            for _ in range(2)
        ]
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
            assert all(w.exitcode == 0 for w in workers)
        finally:
            # A worker that outlives its join deadline must not survive
            # to interpreter exit (multiprocessing joins non-daemon
            # children there, without a timeout — a hang, not a failure).
            for w in workers:
                if w.is_alive():
                    w.terminate()
                    w.join(timeout=10)
        # Serialized, not interleaved: the survivor is a fully clean
        # store, byte-for-byte what a lone pack produces.
        assert fsck(store).ok
        lone = tmp_path / "lone"
        pack_archive(archive, lone)
        for path in sorted(lone.glob("*.col")) + [lone / "manifest.json"]:
            assert (store / path.name).read_bytes() == path.read_bytes()


class TestReaderDuringRepack:
    def test_mapped_tables_survive_a_repack(self, archive, tmp_path):
        store = tmp_path / "store"
        pack_archive(archive, store)
        source = ColumnarStoreSource(store)
        month = source.months()[0]
        table = source.ssl_table(month)  # mmap pins the inode now
        expected = source.read_month(month, OPTIONS).ssl
        # A repack replaces every file under the reader...
        pack_archive(archive, store)
        # ...and the open mapping still serves the complete old bytes —
        # no torn read, no error.
        assert table.verify() == []
        assert table.records() == expected
        # A fresh open sees the (identical) new store.
        fresh = ColumnarStoreSource(store)
        assert fresh.read_month(month, OPTIONS).ssl == expected

    def test_reader_shared_lock_blocks_packer(self, archive, tmp_path):
        from repro.core.locks import LockTimeout

        store = tmp_path / "store"
        pack_archive(archive, store)
        with store_lock(store).shared(op="map"):
            writer = store_lock(store)
            with pytest.raises(LockTimeout):
                writer.acquire(exclusive=True, timeout=0.2, op="pack")


class TestStaleLockTakeover:
    def test_killed_holder_releases_immediately(self, tmp_path):
        lock_path = tmp_path / ".lock"
        ctx = multiprocessing.get_context("fork")
        acquired, release = ctx.Event(), ctx.Event()
        holder = ctx.Process(
            target=_lock_holder, args=(lock_path, acquired, release)
        )
        holder.start()
        try:
            assert acquired.wait(30)
            lock = FileLock(lock_path)
            # The child genuinely holds it...
            with pytest.raises(Exception):
                lock.acquire(timeout=0)
            # ...until SIGKILL: flock dies with the holder, no unlock
            # code runs, and the next acquirer takes over at once.
            os.kill(holder.pid, signal.SIGKILL)
            holder.join(timeout=30)
            deadline = time.monotonic() + 10
            while not lock.is_stale() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert lock.is_stale()  # metadata names a dead pid
            lock.acquire(timeout=5, op="takeover")
            try:
                assert json.loads(lock_path.read_text())["pid"] == os.getpid()
            finally:
                lock.release()
        finally:
            # A multiprocessing Event.set() waits for every sleeper to
            # wake, which a SIGKILLed holder never does: wake the holder
            # only while it lives.
            if holder.is_alive():
                release.set()
                holder.join(timeout=10)
            if holder.is_alive():
                holder.terminate()
                holder.join(timeout=10)


class TestServeSingleOwner:
    def test_second_daemon_refused_first_released_on_close(
        self, simulation, tmp_path
    ):
        logdir = tmp_path / "logs"
        ckpt = tmp_path / "state" / "ckpt.json"
        with LiveLogWriter(simulation.logs, logdir) as writer:
            writer.write_next(10)
        daemon = LiveTailDaemon(
            logdir, simulation.trust_bundle, checkpoint_path=ckpt
        )
        try:
            with pytest.raises(RuntimeError, match="refusing to serve"):
                LiveTailDaemon(
                    logdir, simulation.trust_bundle, checkpoint_path=ckpt
                )
        finally:
            daemon.close()
        # Lock released with the daemon: a successor starts fine.
        successor = LiveTailDaemon(
            logdir, simulation.trust_bundle, checkpoint_path=ckpt
        )
        successor.close()

    def test_startup_sweep_is_scoped_to_own_checkpoint(
        self, simulation, tmp_path
    ):
        from repro.core.durable import TMP_SUFFIX

        logdir = tmp_path / "logs"
        with LiveLogWriter(simulation.logs, logdir) as writer:
            writer.write_next(5)
        ckpt = logdir / "ckpt.json"  # checkpoint sharing the log dir
        mine = logdir / f"ckpt.json.dead{TMP_SUFFIX}"
        theirs = logdir / f"ssl.log.inflight{TMP_SUFFIX}"
        mine.write_bytes(b"half")
        theirs.write_bytes(b"half")
        daemon = LiveTailDaemon(
            logdir, simulation.trust_bundle, checkpoint_path=ckpt
        )
        daemon.close()
        # Only the daemon's own dead temp was swept — a live log
        # writer's in-flight temp in the shared directory is not ours.
        assert not mine.exists()
        assert theirs.exists()
