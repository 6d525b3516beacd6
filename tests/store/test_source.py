"""ColumnarStoreSource: equivalence with the TSV source, manifest
fingerprint invalidation, policy mismatch rejection, worker pickling."""

import gzip
import json
import pickle
from pathlib import Path

import pytest

from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.store import (
    MANIFEST_NAME,
    ColumnarStoreSource,
    StoreFormatError,
    ensure_store,
    pack_archive,
)
from repro.zeek import IngestOptions
from repro.zeek.files import TsvDirectorySource, write_rotated_logs


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    logs = TrafficGenerator(
        ScenarioConfig(seed=13, months=3, connections_per_month=150)
    ).generate().logs
    write_rotated_logs(logs, directory)
    return directory


@pytest.fixture()
def store(archive, tmp_path):
    return pack_archive(archive, tmp_path / "store")


OPTIONS = IngestOptions()


class TestEquivalence:
    def test_months_match(self, archive, store):
        assert store.months() == TsvDirectorySource(archive).months()

    def test_read_month_identical(self, archive, store):
        tsv = TsvDirectorySource(archive)
        for month in tsv.months():
            expected = tsv.read_month(month, OPTIONS)
            got = store.read_month(month, OPTIONS)
            assert got.ssl == expected.ssl
            assert got.x509 == expected.x509
            assert got.ssl_report.to_dict() == expected.ssl_report.to_dict()
            assert got.x509_report.to_dict() == expected.x509_report.to_dict()

    def test_unknown_month(self, store):
        with pytest.raises(KeyError, match="1999-01"):
            store.read_month("1999-01", OPTIONS)

    def test_pickle_round_trip(self, store):
        clone = pickle.loads(pickle.dumps(store))
        month = store.months()[0]
        assert clone.read_month(month, OPTIONS).ssl == \
            store.read_month(month, OPTIONS).ssl


class TestEnsureStore:
    def test_reuses_matching_store(self, archive, tmp_path):
        store_dir = tmp_path / "store"
        pack_archive(archive, store_dir)
        manifest = store_dir / MANIFEST_NAME
        before = manifest.stat().st_mtime_ns
        ensure_store(archive, store_dir)
        assert manifest.stat().st_mtime_ns == before

    def test_repacks_on_archive_change(self, archive, tmp_path):
        store_dir = tmp_path / "store"
        pack_archive(archive, store_dir)
        fingerprint = ColumnarStoreSource(store_dir).manifest["source"][
            "fingerprint"
        ]
        # Any byte-level change to any log file must invalidate — here a
        # recompression that leaves the *content* identical but not the
        # bytes (the fingerprint is over the stored bytes).
        victim = sorted(archive.glob("ssl.*.log.gz"))[0]
        original = victim.read_bytes()
        recompressed = gzip.compress(gzip.decompress(original), compresslevel=1)
        assert recompressed != original
        victim.write_bytes(recompressed)
        try:
            ensure_store(archive, store_dir)
            refreshed = ColumnarStoreSource(store_dir).manifest["source"][
                "fingerprint"
            ]
            assert refreshed != fingerprint
        finally:
            victim.write_bytes(original)

    def test_repacks_on_policy_change(self, archive, tmp_path):
        store_dir = tmp_path / "store"
        pack_archive(archive, store_dir, IngestOptions())
        skip = IngestOptions(on_error="skip")
        source = ensure_store(archive, store_dir, skip)
        assert source.manifest["options"] == {"on_error": "skip"}

    def test_repacks_corrupt_manifest(self, archive, tmp_path):
        store_dir = tmp_path / "store"
        pack_archive(archive, store_dir)
        (store_dir / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        source = ensure_store(archive, store_dir)
        assert source.months() == TsvDirectorySource(archive).months()


class TestRejection:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreFormatError, match="manifest"):
            ColumnarStoreSource(tmp_path)

    def test_format_mismatch(self, store):
        store_dir = store.directory
        path = Path(store_dir) / MANIFEST_NAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["format"] = "columnar-store/v0"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StoreFormatError, match="store format"):
            ColumnarStoreSource(store_dir)

    def test_codec_mismatch(self, store):
        path = Path(store.directory) / MANIFEST_NAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["codec"] = 999
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StoreFormatError, match="codec"):
            ColumnarStoreSource(store.directory)

    def test_policy_mismatch_on_read(self, store):
        with pytest.raises(StoreFormatError, match="packed under"):
            store.read_month(store.months()[0], IngestOptions(on_error="skip"))

    def test_identity_differs_by_policy(self, archive, tmp_path):
        a = pack_archive(archive, tmp_path / "a", IngestOptions())
        b = pack_archive(archive, tmp_path / "b", IngestOptions(on_error="skip"))
        assert a.identity() != b.identity()
