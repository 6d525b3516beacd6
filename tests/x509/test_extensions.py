"""Tests for X.509 extensions."""

import pytest

from repro.asn1 import OID
from repro.asn1.errors import DerDecodeError
from repro.x509 import (
    BasicConstraints,
    CertificateError,
    ExtendedKeyUsage,
    Extension,
    GeneralName,
    KeyUsage,
    SubjectAlternativeName,
)
from repro.asn1.decoder import read_single_tlv


class TestGeneralName:
    @pytest.mark.parametrize(
        "factory,value",
        [
            (GeneralName.dns, "example.com"),
            (GeneralName.dns, "*.wildcard.example"),
            (GeneralName.email, "user@example.com"),
            (GeneralName.uri, "https://example.com/path"),
            (GeneralName.ip, "192.0.2.1"),
            (GeneralName.ip, "2001:db8::1"),
        ],
    )
    def test_round_trip(self, factory, value):
        name = factory(value)
        assert GeneralName.from_tlv(read_single_tlv(name.to_der())) == name

    def test_free_text_dns_round_trip(self):
        # The paper's SAN DNS entries often carry free text, not domains.
        name = GeneralName.dns("John Smith's laptop")
        decoded = GeneralName.from_tlv(read_single_tlv(name.to_der()))
        assert decoded.value == "John Smith's laptop"

    def test_invalid_ip_rejected(self):
        with pytest.raises(CertificateError):
            GeneralName.ip("999.1.1.1").to_der()

    def test_bad_ip_length_rejected(self):
        from repro.asn1 import encode_context

        with pytest.raises(DerDecodeError):
            GeneralName.from_tlv(read_single_tlv(encode_context(7, b"\x01\x02", False)))

    def test_unknown_choice_rejected(self):
        from repro.asn1 import encode_context

        with pytest.raises(DerDecodeError):
            GeneralName.from_tlv(read_single_tlv(encode_context(3, b"", False)))


class TestSubjectAlternativeName:
    def test_round_trip_mixed_types(self):
        san = SubjectAlternativeName(
            (
                GeneralName.dns("example.com"),
                GeneralName.ip("10.0.0.1"),
                GeneralName.email("a@b.c"),
                GeneralName.uri("urn:x"),
            )
        )
        assert SubjectAlternativeName.from_der(san.to_der()) == san

    def test_type_accessors(self):
        san = SubjectAlternativeName(
            (GeneralName.dns("a"), GeneralName.dns("b"), GeneralName.ip("10.0.0.1"))
        )
        assert san.dns_names == ["a", "b"]
        assert san.ip_addresses == ["10.0.0.1"]
        assert san.emails == []
        assert san.uris == []

    def test_empty_san_falsy(self):
        assert not SubjectAlternativeName(())
        assert SubjectAlternativeName((GeneralName.dns("x"),))


class TestBasicConstraints:
    @pytest.mark.parametrize(
        "bc",
        [
            BasicConstraints(ca=False),
            BasicConstraints(ca=True),
            BasicConstraints(ca=True, path_length=0),
            BasicConstraints(ca=True, path_length=3),
        ],
    )
    def test_round_trip(self, bc):
        assert BasicConstraints.from_der(bc.to_der()) == bc

    def test_default_ca_false_omitted(self):
        # DER: DEFAULT values must be absent from the encoding.
        assert BasicConstraints(ca=False).to_der() == b"\x30\x00"


class TestKeyUsage:
    @pytest.mark.parametrize(
        "usage",
        [
            KeyUsage(),
            KeyUsage(digital_signature=True),
            KeyUsage(key_cert_sign=True, crl_sign=True),
            KeyUsage(digital_signature=True, key_encipherment=True),
        ],
    )
    def test_round_trip(self, usage):
        assert KeyUsage.from_der(usage.to_der()) == usage


class TestExtendedKeyUsage:
    def test_round_trip(self):
        eku = ExtendedKeyUsage((OID.EKU_SERVER_AUTH, OID.EKU_CLIENT_AUTH))
        assert ExtendedKeyUsage.from_der(eku.to_der()) == eku

    def test_flags(self):
        eku = ExtendedKeyUsage((OID.EKU_CLIENT_AUTH,))
        assert eku.client_auth and not eku.server_auth


class TestExtensionWrapper:
    def test_round_trip_critical(self):
        ext = Extension.basic_constraints(True, 1)
        decoded = Extension.from_tlv(read_single_tlv(ext.to_der()))
        assert decoded == ext
        assert decoded.critical

    def test_round_trip_noncritical(self):
        ext = Extension.subject_alt_name([GeneralName.dns("x")])
        decoded = Extension.from_tlv(read_single_tlv(ext.to_der()))
        assert decoded == ext
        assert not decoded.critical

    def test_ski_aki(self):
        ski = Extension.subject_key_identifier(b"\x01" * 20)
        aki = Extension.authority_key_identifier(b"\x01" * 20)
        assert Extension.from_tlv(read_single_tlv(ski.to_der())) == ski
        assert Extension.from_tlv(read_single_tlv(aki.to_der())) == aki
