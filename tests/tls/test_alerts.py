"""Tests for the TLS alert model."""

import pytest

from repro.tls.alerts import (
    AlertDescription,
    alert_for_failure,
    alert_for_validation_status,
)
from repro.trust import ValidationStatus


class TestAlertForFailure:
    def test_protocol_version(self):
        alert = alert_for_failure("protocol_version")
        assert alert.description is AlertDescription.PROTOCOL_VERSION
        assert alert.is_fatal

    def test_certificate_required(self):
        alert = alert_for_failure("certificate_required")
        assert alert.description is AlertDescription.CERTIFICATE_REQUIRED

    def test_unknown_reason_catchall(self):
        alert = alert_for_failure("something-weird")
        assert alert.description is AlertDescription.HANDSHAKE_FAILURE
        assert alert.is_fatal

    def test_str(self):
        assert str(alert_for_failure("protocol_version")) == "fatal:protocol_version"


class TestAlertForValidation:
    def test_ok_is_none(self):
        assert alert_for_validation_status(ValidationStatus.OK) is None

    @pytest.mark.parametrize(
        "status,description",
        [
            (ValidationStatus.EXPIRED, AlertDescription.CERTIFICATE_EXPIRED),
            (ValidationStatus.NOT_YET_VALID, AlertDescription.CERTIFICATE_EXPIRED),
            (ValidationStatus.BAD_SIGNATURE, AlertDescription.BAD_CERTIFICATE),
            (ValidationStatus.INVERTED_VALIDITY, AlertDescription.BAD_CERTIFICATE),
            (ValidationStatus.SELF_SIGNED, AlertDescription.UNKNOWN_CA),
            (ValidationStatus.UNTRUSTED_ROOT, AlertDescription.UNKNOWN_CA),
            (ValidationStatus.EMPTY_CHAIN, AlertDescription.CERTIFICATE_REQUIRED),
        ],
    )
    def test_mapping(self, status, description):
        alert = alert_for_validation_status(status)
        assert alert.description is description
        assert alert.is_fatal

    def test_every_status_covered(self):
        for status in ValidationStatus:
            alert_for_validation_status(status)  # must not raise

    def test_handshake_integration(self):
        """A failed simulated handshake maps onto a concrete alert."""
        import datetime as dt

        from repro.tls import ClientProfile, ServerProfile, TlsVersion, perform_handshake
        from repro.x509 import CertificateAuthority, KeyFactory, Name

        ca = CertificateAuthority.create_root(
            Name.build(common_name="Alert CA"), KeyFactory(mode="sim", seed=2)
        )
        cert, _ = ca.issue(
            Name.build(common_name="s"), now=dt.datetime(2023, 1, 1, tzinfo=dt.timezone.utc)
        )
        result = perform_handshake(
            ClientProfile(supported_versions=(TlsVersion.TLS_1_3,)),
            ServerProfile(
                certificate_chain=(cert,),
                supported_versions=(TlsVersion.TLS_1_0,),
            ),
        )
        assert not result.established
        alert = alert_for_failure(result.failure_reason)
        assert alert.description is AlertDescription.PROTOCOL_VERSION
