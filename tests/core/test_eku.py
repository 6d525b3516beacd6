"""Tests for EKU propagation and the EKU-mismatch extension analysis."""

import datetime as dt

import pytest

from repro.asn1 import OID
from repro.core.sharing import eku_mismatch_report, render_eku_mismatch
from repro.x509 import CertificateAuthority, CertificateError, KeyFactory, Name

NOW = dt.datetime(2023, 1, 1, tzinfo=dt.timezone.utc)


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority.create_root(
        Name.build(common_name="EKU CA"), KeyFactory(mode="sim", seed=66)
    )


class TestEkuIssuance:
    def test_purposes_land_in_certificate(self, ca):
        cert, _ = ca.issue(
            Name.build(common_name="server"), now=NOW,
            purposes=(OID.EKU_SERVER_AUTH, OID.EKU_CLIENT_AUTH),
        )
        eku = cert.extended_key_usage
        assert eku is not None
        assert eku.server_auth and eku.client_auth

    def test_no_purposes_no_extension(self, ca):
        cert, _ = ca.issue(Name.build(common_name="bare"), now=NOW)
        assert cert.extended_key_usage is None

    def test_v1_rejects_purposes(self, ca):
        with pytest.raises(CertificateError):
            ca.issue(
                Name.build(common_name="old"), now=NOW, version=1,
                purposes=(OID.EKU_SERVER_AUTH,),
            )


class TestEkuInLogs:
    def test_eku_names_logged(self, small_result):
        records = [r for r in small_result.dataset.certificate_profiles().values()
                   if r.record.eku]
        assert records, "no certificates with EKU in the simulated run"
        names = set()
        for profile in records:
            names.update(profile.record.eku)
        assert "serverAuth" in names
        assert "clientAuth" in names

    def test_allows_helpers(self, small_result):
        for profile in small_result.dataset.certificate_profiles().values():
            record = profile.record
            if not record.eku:
                # Absent EKU permits any usage.
                assert record.allows_server_auth and record.allows_client_auth
            elif record.eku == ("serverAuth",):
                assert record.allows_server_auth
                assert not record.allows_client_auth


class TestEkuMismatch:
    def test_shared_public_certs_violate(self, medium_result):
        report = eku_mismatch_report(medium_result.enriched)
        # The Table 5 public rows and the Table 6 dual-use certs are
        # serverAuth-only certificates presented by clients.
        assert report.client_violations
        assert report.certificates_with_eku > 0

    def test_violations_are_genuine(self, medium_result):
        report = eku_mismatch_report(medium_result.enriched)
        for fp in report.client_violations:
            profile = medium_result.enriched.profiles[fp]
            assert profile.used_as_client
            assert not profile.record.allows_client_auth

    def test_ordinary_clients_do_not_violate(self, medium_result):
        report = eku_mismatch_report(medium_result.enriched)
        for profile in medium_result.enriched.profiles.values():
            record = profile.record
            if record.eku and "clientAuth" in record.eku and profile.used_as_client:
                assert record.fingerprint not in report.client_violations

    def test_render(self, medium_result):
        text = render_eku_mismatch(eku_mismatch_report(medium_result.enriched)).render()
        assert "clientAuth" in text
