"""Tests for certificate building, DER round-trip, and verification."""

import datetime as dt

import pytest

from repro.x509 import (
    Certificate,
    CertificateAuthority,
    CertificateBuilder,
    CertificateError,
    GeneralName,
    InvalidSignatureError,
    KeyFactory,
    Name,
    SerialPolicy,
    Validity,
    ValidityPolicy,
    verify_certificate_signature,
    verify_chain_signatures,
)
from repro.x509.certificate import VERSION_V1, VERSION_V3

UTC = dt.timezone.utc
NB = dt.datetime(2022, 5, 1, tzinfo=UTC)
NA = dt.datetime(2023, 5, 1, tzinfo=UTC)


@pytest.fixture()
def factory():
    return KeyFactory(mode="sim", seed=11)


@pytest.fixture()
def leaf(factory):
    key = factory.new_key()
    signer = factory.new_key()
    cert = (
        CertificateBuilder()
        .subject(Name.build(common_name="leaf.example.com"))
        .issuer(Name.build(common_name="Issuing CA", organization="Example Trust"))
        .serial_number(0x1234ABCD)
        .validity_window(NB, NA)
        .public_key(key.public_key)
        .add_dns_sans(["leaf.example.com", "alt.example.com"])
        .sign(signer)
    )
    return cert, signer


class TestBuilder:
    def test_missing_fields_rejected(self, factory):
        builder = CertificateBuilder().subject(Name.build(common_name="x"))
        with pytest.raises(CertificateError):
            builder.sign(factory.new_key())

    def test_v1_rejects_extensions(self):
        builder = CertificateBuilder().version(VERSION_V1)
        with pytest.raises(CertificateError):
            builder.add_extension(
                __import__("repro.x509", fromlist=["Extension"]).Extension.basic_constraints(False)
            )

    def test_unsupported_version(self):
        with pytest.raises(CertificateError):
            CertificateBuilder().version(2)

    def test_unsupported_digest(self):
        with pytest.raises(CertificateError):
            CertificateBuilder().digest("md2")


class TestRoundTrip:
    def test_der_round_trip(self, leaf):
        cert, _ = leaf
        decoded = Certificate.from_der(cert.to_der())
        assert decoded == cert

    def test_v1_round_trip(self, factory):
        key = factory.new_key()
        cert = (
            CertificateBuilder()
            .version(VERSION_V1)
            .subject(Name.build(common_name="v1 subject"))
            .issuer(Name.build(organization="Internet Widgits Pty Ltd"))
            .serial_number(0)
            .validity_window(NB, NA)
            .public_key(key.public_key)
            .sign(key)
        )
        decoded = Certificate.from_der(cert.to_der())
        assert decoded.version == VERSION_V1
        assert decoded == cert

    def test_accessors(self, leaf):
        cert, _ = leaf
        assert cert.version == VERSION_V3
        assert cert.serial_number == 0x1234ABCD
        assert cert.serial_hex == "1234ABCD"
        assert cert.subject.common_name == "leaf.example.com"
        assert cert.issuer.organization == "Example Trust"
        assert cert.not_valid_before == NB
        assert cert.not_valid_after == NA
        assert cert.subject_alternative_name.dns_names == [
            "leaf.example.com",
            "alt.example.com",
        ]

    def test_serial_hex_pads_odd_length(self, factory):
        key = factory.new_key()
        cert = (
            CertificateBuilder()
            .subject(Name.empty())
            .issuer(Name.empty())
            .serial_number(0xABC)
            .validity_window(NB, NA)
            .public_key(key.public_key)
            .sign(key)
        )
        assert cert.serial_hex == "0ABC"

    def test_fingerprint_stable(self, leaf):
        cert, _ = leaf
        assert cert.fingerprint() == Certificate.from_der(cert.to_der()).fingerprint()
        assert len(cert.fingerprint()) == 64
        assert len(cert.fingerprint("sha1")) == 40


class TestValidity:
    def test_inverted_window_representable(self, factory):
        key = factory.new_key()
        cert = (
            CertificateBuilder()
            .subject(Name.build(common_name="broken"))
            .issuer(Name.build(organization="IDrive Inc Certificate Authority"))
            .serial_number(1)
            .validity_window(
                dt.datetime(2019, 8, 2, tzinfo=UTC),
                dt.datetime(1849, 10, 24, tzinfo=UTC),
            )
            .public_key(key.public_key)
            .sign(key)
        )
        decoded = Certificate.from_der(cert.to_der())
        assert decoded.validity.is_inverted
        assert decoded.not_valid_after.year == 1849
        assert decoded.validity.period_days < 0

    def test_contains(self):
        validity = Validity(NB, NA)
        assert validity.contains(dt.datetime(2022, 8, 1, tzinfo=UTC))
        assert not validity.contains(dt.datetime(2024, 1, 1, tzinfo=UTC))

    def test_expired_at(self, leaf):
        cert, _ = leaf
        assert cert.expired_at(dt.datetime(2024, 1, 1, tzinfo=UTC))
        assert not cert.expired_at(dt.datetime(2022, 6, 1, tzinfo=UTC))
        assert cert.days_expired(dt.datetime(2023, 5, 2, tzinfo=UTC)) == pytest.approx(1.0)

    def test_naive_datetimes_coerced(self):
        validity = Validity(dt.datetime(2022, 1, 1), dt.datetime(2023, 1, 1))
        assert validity.not_before.tzinfo is UTC


class TestVerification:
    def test_signature_verifies(self, leaf):
        cert, signer = leaf
        verify_certificate_signature(cert, signer.public_key)

    def test_wrong_key_rejected(self, leaf, factory):
        cert, _ = leaf
        with pytest.raises(InvalidSignatureError):
            verify_certificate_signature(cert, factory.new_key().public_key)

    def test_rsa_signed_certificate(self):
        factory = KeyFactory(mode="rsa", seed=9)
        key = factory.new_key(bits=512)
        cert = (
            CertificateBuilder()
            .subject(Name.build(common_name="rsa leaf"))
            .issuer(Name.build(common_name="rsa issuer"))
            .serial_number(5)
            .validity_window(NB, NA)
            .public_key(key.public_key)
            .sign(key)
        )
        decoded = Certificate.from_der(cert.to_der())
        verify_certificate_signature(decoded, key.public_key)
        assert decoded.signature_algorithm.oid.name == "sha256WithRSAEncryption"


class TestCertificateAuthority:
    def test_root_is_self_signed(self, factory):
        root = CertificateAuthority.create_root(
            Name.build(common_name="Root", organization="TestOrg"), factory
        )
        assert root.certificate.is_self_issued
        assert root.certificate.is_ca
        verify_certificate_signature(root.certificate, root.key.public_key)

    def test_chain_verifies(self, factory):
        root = CertificateAuthority.create_root(Name.build(common_name="Root"), factory)
        inter = root.create_intermediate(Name.build(common_name="Intermediate"))
        now = dt.datetime(2023, 1, 1, tzinfo=UTC)
        cert, _key = inter.issue(Name.build(common_name="leaf"), now=now)
        chain = [cert] + inter.chain()
        verify_chain_signatures(chain)

    def test_broken_chain_rejected(self, factory):
        root = CertificateAuthority.create_root(Name.build(common_name="Root"), factory)
        other = CertificateAuthority.create_root(Name.build(common_name="Other"), factory)
        now = dt.datetime(2023, 1, 1, tzinfo=UTC)
        cert, _ = root.issue(Name.build(common_name="leaf"), now=now)
        with pytest.raises(InvalidSignatureError):
            verify_chain_signatures([cert, other.certificate])

    def test_empty_chain_rejected(self):
        with pytest.raises(InvalidSignatureError):
            verify_chain_signatures([])

    def test_fixed_serial_policy_collides(self, factory):
        ca = CertificateAuthority.create_root(
            Name.build(common_name="Globus Online"),
            factory,
            serial_policy=SerialPolicy.fixed(0x00),
        )
        now = dt.datetime(2023, 1, 1, tzinfo=UTC)
        certs = [ca.issue(Name.build(common_name=f"c{i}"), now=now)[0] for i in range(5)]
        assert {c.serial_number for c in certs} == {0}

    def test_random_serial_policy_unique(self, factory):
        ca = CertificateAuthority.create_root(Name.build(common_name="CA"), factory)
        now = dt.datetime(2023, 1, 1, tzinfo=UTC)
        serials = {ca.issue(Name.build(common_name=f"c{i}"), now=now)[0].serial_number
                   for i in range(50)}
        assert len(serials) == 50

    def test_sequential_serial_policy(self, factory):
        ca = CertificateAuthority.create_root(
            Name.build(common_name="CA"),
            factory,
            serial_policy=SerialPolicy.sequential(10),
        )
        now = dt.datetime(2023, 1, 1, tzinfo=UTC)
        serials = [ca.issue(Name.build(common_name=f"c{i}"), now=now)[0].serial_number
                   for i in range(3)]
        assert serials == [10, 11, 12]

    def test_validity_policy_days(self, factory):
        ca = CertificateAuthority.create_root(
            Name.build(common_name="CA"),
            factory,
            validity_policy=ValidityPolicy.days(14),
        )
        now = dt.datetime(2023, 1, 1, tzinfo=UTC)
        cert, _ = ca.issue(Name.build(common_name="c"), now=now)
        assert cert.validity.period_days == pytest.approx(14)

    def test_issue_overrides(self, factory):
        ca = CertificateAuthority.create_root(Name.build(common_name="CA"), factory)
        now = dt.datetime(2023, 1, 1, tzinfo=UTC)
        nb = dt.datetime(2020, 7, 3, tzinfo=UTC)
        na = dt.datetime(1850, 9, 25, tzinfo=UTC)
        cert, _ = ca.issue(
            Name.build(common_name="broken"), now=now, serial=0x24680,
            not_before=nb, not_after=na,
        )
        assert cert.serial_number == 0x24680
        assert cert.validity.is_inverted

    def test_issue_partial_override_rejected(self, factory):
        ca = CertificateAuthority.create_root(Name.build(common_name="CA"), factory)
        with pytest.raises(CertificateError):
            ca.issue(
                Name.build(common_name="x"),
                now=dt.datetime(2023, 1, 1, tzinfo=UTC),
                not_before=NB,
            )

    def test_v1_issuance(self, factory):
        ca = CertificateAuthority.create_root(Name.build(common_name="CA"), factory)
        now = dt.datetime(2023, 1, 1, tzinfo=UTC)
        cert, _ = ca.issue(Name.build(common_name="old"), now=now, version=VERSION_V1)
        assert cert.version == VERSION_V1
        assert not cert.tbs.extensions

    def test_v1_with_sans_rejected(self, factory):
        ca = CertificateAuthority.create_root(Name.build(common_name="CA"), factory)
        with pytest.raises(CertificateError):
            ca.issue(
                Name.build(common_name="old"),
                now=dt.datetime(2023, 1, 1, tzinfo=UTC),
                version=VERSION_V1,
                sans=[GeneralName.dns("x")],
            )

    def test_chain_order(self, factory):
        root = CertificateAuthority.create_root(Name.build(common_name="R"), factory)
        inter = root.create_intermediate(Name.build(common_name="I"))
        chain = inter.chain()
        assert [c.subject.common_name for c in chain] == ["I", "R"]
