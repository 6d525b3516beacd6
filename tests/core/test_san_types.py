"""Tests for the §6.1.2 SAN-type usage analysis."""

from repro.core.cnsan import SanTypeUsage, render_san_type_usage, san_type_usage


class TestSanTypeUsage:
    def test_basic_shape(self, medium_result):
        usage = san_type_usage(medium_result.enriched)
        assert usage.population > 0
        # DNS is the only commonly-populated type; the explicit types
        # are rare (the paper's 99%-empty finding).
        assert usage.with_dns >= usage.with_ip
        assert usage.with_dns >= usage.with_email
        assert usage.with_ip / usage.population < 0.05
        assert usage.with_email / usage.population < 0.05

    def test_explicit_types_conform_when_used(self, medium_result):
        usage = san_type_usage(medium_result.enriched)
        # When IP/email SAN types are used, every entry matches its type
        # — the paper's §6.1.2 contrast with the free-text SAN DNS.
        assert usage.ip_entries_valid == usage.ip_entries
        assert usage.email_entries_valid == usage.email_entries

    def test_dns_type_carries_non_domains(self, medium_result):
        usage = san_type_usage(medium_result.enriched)
        # SAN DNS does NOT conform: free text appears there.
        if usage.dns_entries:
            assert usage.dns_entries_domainlike <= usage.dns_entries

    def test_counts_consistent(self, medium_result):
        usage = san_type_usage(medium_result.enriched)
        for attr in ("with_dns", "with_ip", "with_email", "with_uri"):
            assert getattr(usage, attr) <= usage.population

    def test_custom_population(self, medium_result):
        from repro.core.cnsan import non_mutual_server_population

        population = non_mutual_server_population(medium_result.enriched)
        usage = san_type_usage(medium_result.enriched, population)
        assert usage.population == len(population)

    def test_empty_population(self, medium_result):
        usage = san_type_usage(medium_result.enriched, [])
        assert usage == SanTypeUsage(population=0)

    def test_render(self, medium_result):
        text = render_san_type_usage(san_type_usage(medium_result.enriched)).render()
        assert "§6.1.2" in text and "Email" in text
