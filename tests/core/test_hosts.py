"""Tests for the per-host certificate inventory."""

from repro.core.hosts import host_inventory, render_host_inventory


class TestHostInventory:
    def test_maps_are_inverses(self, medium_result):
        inventory = host_inventory(medium_result.enriched)
        for host, fingerprints in inventory.certs_by_host.items():
            for fingerprint in fingerprints:
                assert host in inventory.hosts_by_cert[fingerprint]
        for fingerprint, hosts in inventory.hosts_by_cert.items():
            for host in hosts:
                assert fingerprint in inventory.certs_by_host[host]

    def test_counts_positive(self, medium_result):
        inventory = host_inventory(medium_result.enriched)
        assert inventory.host_count > 0
        assert inventory.certificate_count > 0

    def test_churny_hosts_detected(self, medium_result):
        """Renewing sites / Globus churn give some hosts many certs."""
        inventory = host_inventory(medium_result.enriched)
        churny = inventory.hosts_with_many_certs(threshold=2)
        assert churny
        # Sorted busiest-first.
        counts = [count for _, count in churny]
        assert counts == sorted(counts, reverse=True)

    def test_multi_host_certs_detected(self, medium_result):
        """Table 6's dual-use certs appear on several server IPs."""
        inventory = host_inventory(medium_result.enriched)
        spread = inventory.certs_on_many_hosts(threshold=2)
        assert spread

    def test_internal_only_subset(self, medium_result):
        full = host_inventory(medium_result.enriched)
        internal = host_inventory(medium_result.enriched, internal_only=True)
        assert internal.host_count <= full.host_count
        assert set(internal.certs_by_host) <= set(full.certs_by_host)

    def test_internal_hosts_are_campus(self, medium_result):
        from repro.netsim import AddressSpace

        space = AddressSpace()
        inventory = host_inventory(medium_result.enriched, internal_only=True)
        for host in inventory.certs_by_host:
            assert space.is_internal(host)

    def test_render(self, medium_result):
        text = render_host_inventory(host_inventory(medium_result.enriched)).render()
        assert "known_certs" in text
