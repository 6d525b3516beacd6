"""Tests for the Zeek TSV reader/writer."""

import datetime as dt
import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.zeek import (
    IngestOptions,
    SslRecord,
    TsvFormatError,
    X509Record,
    read_ssl_log,
    read_x509_log,
    tsv,
    write_ssl_log,
    write_x509_log,
)

UTC = dt.timezone.utc


def _ssl_record(**overrides):
    base = dict(
        ts=dt.datetime(2023, 1, 1, 12, 0, 0, tzinfo=UTC),
        uid="CABCDEF",
        id_orig_h="10.0.0.1",
        id_orig_p=51515,
        id_resp_h="192.0.2.1",
        id_resp_p=443,
        version="TLSv12",
        cipher="TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
        server_name="example.com",
        established=True,
        cert_chain_fuids=("F1", "F2"),
        client_cert_chain_fuids=("F3",),
        validation_status="ok",
    )
    base.update(overrides)
    return SslRecord(**base)


def _x509_record(**overrides):
    base = dict(
        ts=dt.datetime(2023, 1, 1, 12, 0, 0, tzinfo=UTC),
        fuid="F1",
        fingerprint="ab" * 32,
        version=3,
        serial="0A1B",
        subject="CN=example.com,O=Example",
        issuer="CN=Issuing CA,O=Example Trust",
        not_valid_before=dt.datetime(2022, 6, 1, tzinfo=UTC),
        not_valid_after=dt.datetime(2023, 6, 1, tzinfo=UTC),
        key_alg="rsaEncryption",
        sig_alg="sha256WithRSAEncryption",
        key_length=2048,
        san_dns=("example.com", "www.example.com"),
        san_uri=(),
        san_email=(),
        san_ip=("192.0.2.5",),
        basic_constraints_ca=False,
    )
    base.update(overrides)
    return X509Record(**base)


def _round_trip_ssl(records, options=None):
    buffer = io.StringIO()
    write_ssl_log(records, buffer)
    buffer.seek(0)
    return read_ssl_log(buffer, options)


def _round_trip_x509(records, options=None):
    buffer = io.StringIO()
    write_x509_log(records, buffer)
    buffer.seek(0)
    return read_x509_log(buffer, options)


class TestSslRoundTrip:
    def test_basic(self):
        record = _ssl_record()
        assert _round_trip_ssl([record]) == [record]

    def test_unset_sni(self):
        record = _ssl_record(server_name=None)
        assert _round_trip_ssl([record])[0].server_name is None

    def test_empty_chains(self):
        record = _ssl_record(cert_chain_fuids=(), client_cert_chain_fuids=())
        decoded = _round_trip_ssl([record])[0]
        assert decoded.cert_chain_fuids == ()
        assert not decoded.is_mutual

    def test_many_records(self):
        records = [_ssl_record(uid=f"C{i}") for i in range(50)]
        assert _round_trip_ssl(records) == records

    def test_tab_in_sni_survives(self):
        record = _ssl_record(server_name="weird\tname")
        assert _round_trip_ssl([record])[0].server_name == "weird\tname"


class TestX509RoundTrip:
    def test_basic(self):
        record = _x509_record()
        assert _round_trip_x509([record]) == [record]

    def test_comma_in_subject_survives(self):
        record = _x509_record(subject="CN=Smith\\, John,O=Acme")
        assert _round_trip_x509([record])[0].subject == record.subject

    def test_comma_in_san_element_survives(self):
        record = _x509_record(san_dns=("a,b", "c"))
        assert _round_trip_x509([record])[0].san_dns == ("a,b", "c")

    def test_unset_basic_constraints(self):
        record = _x509_record(basic_constraints_ca=None)
        assert _round_trip_x509([record])[0].basic_constraints_ca is None

    def test_inverted_dates_survive(self):
        record = _x509_record(
            not_valid_before=dt.datetime(2019, 8, 2, tzinfo=UTC),
            not_valid_after=dt.datetime(1849, 10, 24, tzinfo=UTC),
        )
        decoded = _round_trip_x509([record])[0]
        assert decoded.has_inverted_validity
        assert decoded.not_valid_after.year == 1849


@pytest.mark.parametrize("fast_path", ["off", "auto"])
@pytest.mark.parametrize("marker", ["-", "(empty)"])
class TestMarkerSpelledValues:
    """A value spelled like the unset (``-``) or empty (``(empty)``)
    marker is written escaped and reads back as itself, not as unset,
    under both decoders. The marker row sits among plain rows read in
    small buffers, so the batch engine decodes it both line by line
    and inside a clean interior chunk."""

    @pytest.fixture(autouse=True)
    def _small_batches(self, monkeypatch):
        monkeypatch.setattr(tsv, "BATCH_CHUNK_CHARS", 512)

    def test_ssl(self, marker, fast_path):
        odd = _ssl_record(
            uid="CMARKER",
            server_name=marker,
            cert_chain_fuids=(marker,),
            client_cert_chain_fuids=(marker, "F9"),
            validation_status=marker,
        )
        records = [_ssl_record(uid=f"C{i}") for i in range(30)]
        for index in (0, 15):
            records[index] = odd
        decoded = _round_trip_ssl(records, IngestOptions(fast_path=fast_path))
        assert decoded == records

    def test_x509(self, marker, fast_path):
        odd = _x509_record(
            fuid="FMARKER",
            subject=marker,
            issuer=marker,
            san_dns=(marker,),
            san_uri=(marker,),
            san_email=(marker, "a@b.example"),
            san_ip=(marker,),
            eku=(marker,),
        )
        records = [_x509_record(fuid=f"F{i}") for i in range(20)]
        for index in (0, 10):
            records[index] = odd
        decoded = _round_trip_x509(records, IngestOptions(fast_path=fast_path))
        assert decoded == records


@pytest.mark.parametrize(
    ("marker", "written"),
    [("-", "\\x2d"), ("(empty)", "\\x28empty)")],
)
def test_marker_spelled_value_written_in_zeek_escapes(marker, written):
    buffer = io.StringIO()
    write_ssl_log([_ssl_record(server_name=marker)], buffer)
    assert buffer.getvalue().splitlines()[-2].split("\t")[8] == written


class TestHeadersAndErrors:
    def test_header_lines_present(self):
        buffer = io.StringIO()
        write_ssl_log([_ssl_record()], buffer)
        text = buffer.getvalue()
        assert text.startswith("#separator")
        assert "#path\tssl" in text
        assert "#fields\tts\tuid" in text
        assert text.rstrip().endswith("#close")

    def test_wrong_path_rejected(self):
        buffer = io.StringIO()
        write_ssl_log([_ssl_record()], buffer)
        buffer.seek(0)
        with pytest.raises(TsvFormatError):
            read_x509_log(buffer)

    def test_wrong_cell_count_rejected(self):
        buffer = io.StringIO()
        write_ssl_log([_ssl_record()], buffer)
        lines = buffer.getvalue().splitlines()
        lines[-2] += "\textra"
        with pytest.raises(TsvFormatError):
            read_ssl_log(io.StringIO("\n".join(lines)))

    def test_data_before_fields_rejected(self):
        with pytest.raises(TsvFormatError):
            read_ssl_log(io.StringIO("#path\tssl\n1\t2\n"))

    def test_bad_bool_rejected(self):
        buffer = io.StringIO()
        write_ssl_log([_ssl_record()], buffer)
        text = buffer.getvalue().replace("\tT\t", "\tmaybe\t")
        with pytest.raises(TsvFormatError):
            read_ssl_log(io.StringIO(text))


sni_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1,
    max_size=30,
)


@given(
    sni=st.one_of(st.none(), sni_text),
    fuids=st.lists(st.text(alphabet="ABCdef123", min_size=1, max_size=8), max_size=4),
    established=st.booleans(),
)
@example(sni="-", fuids=[], established=True)
@example(sni="(empty)", fuids=[], established=True)
def test_ssl_round_trip_property(sni, fuids, established):
    record = _ssl_record(
        server_name=sni if sni != "" else None,
        cert_chain_fuids=tuple(fuids),
        established=established,
    )
    assert _round_trip_ssl([record]) == [record]


@given(
    subject=sni_text,
    san=st.lists(sni_text, max_size=4),
    serial=st.integers(0, 2**64).map(lambda n: f"{n:X}"),
)
@example(subject="-", san=["-"], serial="0")
@example(subject="(empty)", san=["(empty)"], serial="0")
def test_x509_round_trip_property(subject, san, serial):
    record = _x509_record(subject=subject, san_dns=tuple(san), serial=serial)
    assert _round_trip_x509([record]) == [record]


# Characters the TSV layer must escape: the cell separator, record
# separators, the escape character itself, and the vector separator.
_NASTY = "\t\n\r\\,"

nasty_text = st.text(
    alphabet=st.sampled_from(_NASTY + "aé中🔒 .="),
    min_size=1,
    max_size=20,
).filter(lambda s: any(c in _NASTY for c in s))


@given(
    fuids=st.lists(nasty_text, min_size=1, max_size=4),
    sni=nasty_text,
)
def test_ssl_vector_escaping_property(fuids, sni):
    """Separator characters inside vector elements and the SNI survive."""
    record = _ssl_record(
        server_name=sni,
        cert_chain_fuids=tuple(fuids),
        client_cert_chain_fuids=tuple(reversed(fuids)),
    )
    assert _round_trip_ssl([record]) == [record]


@given(
    subject=nasty_text,
    issuer=nasty_text,
    san=st.lists(nasty_text, min_size=1, max_size=4),
)
def test_x509_nasty_subject_escaping_property(subject, issuer, san):
    """Tabs, newlines, backslashes, and commas in DN/SAN text survive,
    mixed with non-ASCII (internationalized subjects are real)."""
    record = _x509_record(
        subject=subject,
        issuer=issuer,
        san_dns=tuple(san),
        san_email=tuple(san),
    )
    assert _round_trip_x509([record]) == [record]
