"""Store integrity end to end: checksummed codec v2, verify-as-served
(header at map time, sections on first access), transparent healing,
fsck detect/quarantine/repair (byte-identical), stores from before
checksums refused and repacked, and the fsck CLI exit codes."""

import json
import zlib

import pytest

from repro.cli import EXIT_CORRUPT, main
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.netsim.faults import flip_byte
from repro.store import (
    CODEC_VERSION,
    MAGIC,
    MANIFEST_NAME,
    STORE_FORMAT,
    ColumnarStoreSource,
    ColumnTable,
    StoreFormatError,
    StoreIntegrityError,
    ensure_store,
    fsck,
    pack_archive,
)
from repro.zeek import IngestOptions
from repro.zeek.files import write_rotated_logs

OPTIONS = IngestOptions()


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    logs = TrafficGenerator(
        ScenarioConfig(seed=17, months=3, connections_per_month=120)
    ).generate().logs
    write_rotated_logs(logs, directory)
    return directory


@pytest.fixture()
def store_dir(archive, tmp_path):
    store = tmp_path / "store"
    pack_archive(archive, store)
    return store


def _shard_file(store_dir):
    manifest = json.loads((store_dir / MANIFEST_NAME).read_text("utf-8"))
    month = manifest["months"][0]
    return manifest["ssl_shards"][month]["file"], month


def _flip_in_section(path, section="cipher"):
    """Flip one byte guaranteed to land inside a named section (a
    seeded flip could hit alignment padding, which only the file-level
    CRC sees — deterministic tests want a section hit)."""
    table = ColumnTable(path.read_bytes(), verify=False)
    _, offset, length = table._sections[section]
    assert length > 0
    flip_byte(path, offset)


#: The retired pre-checksum (codec 1) column-file magic.
V1_MAGIC = b"RPCOL1\n\0"


def _strip_checksums(store_dir, *, label, codec):
    """Relabel a packed store's manifest and drop every file entry's
    byte length and CRC32, as a manifest from before checksums had."""
    path = store_dir / MANIFEST_NAME
    manifest = json.loads(path.read_text("utf-8"))
    for entry in list(manifest["ssl_shards"].values()) + manifest["x509"]["files"]:
        del entry["bytes"], entry["crc32"]
    manifest["format"] = label
    manifest["codec"] = codec
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def _forge_v1(store_dir):
    """Make a packed store look like one from before checksums: the v1
    manifest label and codec, no per-file integrity fields, and the v1
    magic on every column file."""
    _strip_checksums(store_dir, label="columnar-store/v1", codec=1)
    for path in store_dir.glob("*.col"):
        blob = bytearray(path.read_bytes())
        blob[: len(V1_MAGIC)] = V1_MAGIC
        path.write_bytes(bytes(blob))


class TestCodecV2:
    def test_packed_files_carry_v2_magic(self, store_dir):
        filename, _ = _shard_file(store_dir)
        assert (store_dir / filename).read_bytes()[:8] == MAGIC

    def test_manifest_records_bytes_and_crc(self, store_dir):
        manifest = json.loads((store_dir / MANIFEST_NAME).read_text("utf-8"))
        assert manifest["format"] == STORE_FORMAT
        assert manifest["codec"] == CODEC_VERSION
        entries = list(manifest["ssl_shards"].values()) + manifest["x509"]["files"]
        assert entries
        for entry in entries:
            blob = (store_dir / entry["file"]).read_bytes()
            assert entry["bytes"] == len(blob)
            assert entry["crc32"] == zlib.crc32(blob)

    def test_header_crc_detects_header_damage(self, store_dir):
        filename, _ = _shard_file(store_dir)
        path = store_dir / filename
        flip_byte(path, 20)  # inside the JSON header, past the framing
        with pytest.raises(StoreIntegrityError, match="header") as excinfo:
            ColumnTable(path.read_bytes(), name=filename)
        assert excinfo.value.findings == ["header"]

    def test_section_crc_detects_content_damage(self, store_dir):
        filename, _ = _shard_file(store_dir)
        _flip_in_section(store_dir / filename, "cipher")
        # Verification is lazy (first access of each section): opening
        # the damaged file succeeds, serving undamaged columns succeeds,
        # serving the damaged one raises before a value is decoded.
        table = ColumnTable((store_dir / filename).read_bytes(), name=filename)
        assert table.raw("version")
        with pytest.raises(StoreIntegrityError, match="cipher") as excinfo:
            table.raw("cipher")
        assert "cipher" in excinfo.value.findings
        with pytest.raises(StoreIntegrityError, match="cipher"):
            table.records()

    def test_verify_false_defers_to_caller(self, store_dir):
        filename, _ = _shard_file(store_dir)
        _flip_in_section(store_dir / filename, "cipher")
        table = ColumnTable((store_dir / filename).read_bytes(), verify=False)
        assert "cipher" in table.verify()

    def test_clean_file_verifies_empty(self, store_dir):
        filename, _ = _shard_file(store_dir)
        assert ColumnTable((store_dir / filename).read_bytes()).verify() == []


class TestVerifyOnMap:
    def test_bit_flip_detected_before_records(self, archive, store_dir):
        filename, month = _shard_file(store_dir)
        _flip_in_section(store_dir / filename)
        source = ColumnarStoreSource(store_dir, heal=False)
        with pytest.raises(StoreIntegrityError, match="cipher"):
            source.read_month(month, OPTIONS)

    def test_truncation_detected_by_size(self, store_dir):
        filename, month = _shard_file(store_dir)
        path = store_dir / filename
        path.write_bytes(path.read_bytes()[:-16])
        source = ColumnarStoreSource(store_dir, heal=False)
        with pytest.raises(StoreIntegrityError, match="size") as excinfo:
            source.ssl_table(month)
        assert excinfo.value.findings == ["size"]

    def test_missing_file_detected(self, store_dir):
        filename, month = _shard_file(store_dir)
        (store_dir / filename).unlink()
        source = ColumnarStoreSource(store_dir, heal=False)
        with pytest.raises(StoreIntegrityError, match="missing"):
            source.ssl_table(month)


class TestHealing:
    def test_damaged_shard_healed_transparently(self, archive, store_dir):
        filename, month = _shard_file(store_dir)
        clean = (store_dir / filename).read_bytes()
        _flip_in_section(store_dir / filename)
        source = ColumnarStoreSource(store_dir)  # heal=True default
        expected = ColumnarStoreSource(store_dir, verify=False, heal=False)
        shard = source.read_month(month, OPTIONS)
        assert source.healed == [filename]
        # The rebuild is byte-identical to the pre-damage file (packing
        # is deterministic) and the records round-trip.
        assert (store_dir / filename).read_bytes() == clean
        assert shard.ssl == expected.read_month(month, OPTIONS).ssl
        # The damaged original is evidence, parked not deleted.
        assert (store_dir / "quarantine" / filename).exists()

    def test_missing_file_healed(self, store_dir):
        filename, month = _shard_file(store_dir)
        clean = (store_dir / filename).read_bytes()
        (store_dir / filename).unlink()
        source = ColumnarStoreSource(store_dir)
        source.ssl_table(month)
        assert source.healed == [filename]
        assert (store_dir / filename).read_bytes() == clean
        # Nothing to quarantine: the file was simply gone.
        assert not (store_dir / "quarantine" / filename).exists()

    def test_query_engine_heals_mid_query(self, store_dir):
        from repro.store import StoreQueryEngine

        filename, _ = _shard_file(store_dir)
        clean = (store_dir / filename).read_bytes()
        _flip_in_section(store_dir / filename, "__flags__")
        source = ColumnarStoreSource(store_dir)
        # Section damage surfaces lazily, inside the engine's column
        # fetch; serve() quarantines, rebuilds, and refetches without
        # the query observing a damaged byte.
        shares = StoreQueryEngine(source).monthly_mutual_share()
        assert source.healed == [filename]
        assert (store_dir / filename).read_bytes() == clean
        pristine = ColumnarStoreSource(store_dir)
        assert StoreQueryEngine(pristine).monthly_mutual_share() == shares
        assert pristine.healed == []

    def test_heal_fails_when_source_drifted(self, archive, store_dir):
        filename, month = _shard_file(store_dir)
        _flip_in_section(store_dir / filename)
        manifest_path = store_dir / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text("utf-8"))
        manifest["source"]["fingerprint"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        source = ColumnarStoreSource(store_dir)
        with pytest.raises(StoreIntegrityError):
            source.read_month(month, OPTIONS)


class TestFsck:
    def test_clean_store_is_ok(self, store_dir):
        result = fsck(store_dir)
        assert result.ok
        assert all(f.status == "ok" for f in result.findings)

    def test_detects_and_names_damaged_section(self, store_dir):
        filename, _ = _shard_file(store_dir)
        _flip_in_section(store_dir / filename, "cipher")
        result = fsck(store_dir)
        assert not result.ok
        (damaged,) = result.damaged
        assert damaged.file == filename
        assert "cipher" in damaged.detail

    def test_detects_truncation(self, store_dir):
        filename, _ = _shard_file(store_dir)
        path = store_dir / filename
        path.write_bytes(path.read_bytes()[:-8])
        (damaged,) = fsck(store_dir).damaged
        assert "truncated/torn" in damaged.detail

    def test_detects_missing(self, store_dir):
        filename, _ = _shard_file(store_dir)
        (store_dir / filename).unlink()
        (damaged,) = fsck(store_dir).damaged
        assert damaged.status == "missing"

    def test_repair_round_trip_byte_identical(self, store_dir):
        filename, _ = _shard_file(store_dir)
        clean = (store_dir / filename).read_bytes()
        _flip_in_section(store_dir / filename)
        result = fsck(store_dir, repair=True)
        assert result.ok
        assert result.repaired == [filename]
        assert result.quarantined == [filename]
        assert (store_dir / filename).read_bytes() == clean
        # A second pass finds nothing.
        again = fsck(store_dir)
        assert again.ok and all(f.status == "ok" for f in again.findings)

    def test_repair_without_source_reports_unrepaired(self, store_dir, tmp_path):
        filename, _ = _shard_file(store_dir)
        _flip_in_section(store_dir / filename)
        result = fsck(store_dir, source=tmp_path / "gone", repair=True)
        assert not result.ok
        assert result.unrepaired == [filename]

    def test_missing_manifest_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StoreFormatError, match="manifest"):
            fsck(tmp_path / "empty")

    def test_corrupt_manifest_raises(self, store_dir):
        (store_dir / MANIFEST_NAME).write_text("{torn", encoding="utf-8")
        with pytest.raises(StoreFormatError, match="root of trust"):
            fsck(store_dir)


class TestRetiredV1:
    """A store from before checksums is repacked from its archive, never
    read: no reader serves it and fsck refuses to audit it."""

    def test_v1_file_is_bad_magic(self, store_dir):
        _forge_v1(store_dir)
        filename, _ = _shard_file(store_dir)
        with pytest.raises(StoreFormatError, match="bad magic"):
            ColumnTable((store_dir / filename).read_bytes(), name=filename)

    def test_source_refuses_v1_store(self, store_dir):
        _forge_v1(store_dir)
        with pytest.raises(StoreFormatError, match="repack"):
            ColumnarStoreSource(store_dir)

    def test_fsck_refuses_v1_store(self, store_dir, capsys):
        _forge_v1(store_dir)
        with pytest.raises(StoreFormatError, match="repack"):
            fsck(store_dir)
        assert main(["fsck", str(store_dir)]) == 1
        assert "repack" in capsys.readouterr().err

    def test_v2_label_without_checksums_is_malformed(self, store_dir):
        _strip_checksums(store_dir, label=STORE_FORMAT, codec=CODEC_VERSION)
        for reader in (ColumnarStoreSource, fsck):
            with pytest.raises(StoreFormatError, match="malformed.*repack"):
                reader(store_dir)

    def test_ensure_store_repacks_v1_store(self, archive, store_dir):
        _forge_v1(store_dir)
        source = ensure_store(archive, store_dir)
        assert source.manifest["format"] == STORE_FORMAT
        for path in store_dir.glob("*.col"):
            assert path.read_bytes()[: len(MAGIC)] == MAGIC
        result = fsck(store_dir)
        assert result.ok and all(f.status == "ok" for f in result.findings)


class TestManifestShape:
    @pytest.mark.parametrize(
        "key", ["x509", "ssl_shards", "months", "source", "options"]
    )
    def test_missing_entry_names_the_repack(self, archive, store_dir, key, capsys):
        path = store_dir / MANIFEST_NAME
        manifest = json.loads(path.read_text("utf-8"))
        del manifest[key]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        for reader in (ColumnarStoreSource, fsck):
            with pytest.raises(StoreFormatError, match=f"no {key}; repack"):
                reader(store_dir)
        assert main(["fsck", str(store_dir)]) == 1
        assert "repack" in capsys.readouterr().err
        assert ensure_store(archive, store_dir).manifest[key]
        assert fsck(store_dir).ok


class TestFsckCli:
    def test_clean_store_exits_zero(self, store_dir, capsys):
        assert main(["fsck", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "Store integrity" in out
        assert "store verified" in out

    def test_damage_exits_corrupt(self, store_dir, capsys):
        filename, _ = _shard_file(store_dir)
        _flip_in_section(store_dir / filename)
        assert main(["fsck", str(store_dir)]) == EXIT_CORRUPT
        captured = capsys.readouterr()
        assert "damaged" in captured.out
        assert "--repair" in captured.err

    def test_repair_exits_zero_and_heals(self, store_dir, capsys):
        filename, _ = _shard_file(store_dir)
        clean = (store_dir / filename).read_bytes()
        _flip_in_section(store_dir / filename)
        assert main(["fsck", str(store_dir), "--repair"]) == 0
        assert "repaired" in capsys.readouterr().out
        assert (store_dir / filename).read_bytes() == clean

    def test_not_a_store_exits_one(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path)]) == 1
        assert "manifest" in capsys.readouterr().err
