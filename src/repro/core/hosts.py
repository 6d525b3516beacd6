"""Per-host certificate inventory (a `known_certs.log`-style view).

Zeek deployments keep a ledger of which certificates each local server
presents. This module builds that inventory from the enriched dataset
and surfaces the two irregularities adjacent to §5.2: servers cycling
through many certificates (churn or misconfiguration) and certificates
appearing on many servers (wildcard reuse or key sharing).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.enrich import EnrichedDataset
from repro.core.report import Table


@dataclass
class HostInventory:
    """Certificates observed per server endpoint, and the reverse map."""

    #: server IP → fingerprints it presented
    certs_by_host: dict[str, set[str]]
    #: fingerprint → server IPs that presented it
    hosts_by_cert: dict[str, set[str]]

    def hosts_with_many_certs(self, threshold: int = 3) -> list[tuple[str, int]]:
        """Servers presenting at least `threshold` distinct certificates,
        busiest first."""
        return sorted(
            (
                (host, len(fingerprints))
                for host, fingerprints in self.certs_by_host.items()
                if len(fingerprints) >= threshold
            ),
            key=lambda item: -item[1],
        )

    def certs_on_many_hosts(self, threshold: int = 3) -> list[tuple[str, int]]:
        """Certificates presented by at least `threshold` distinct servers."""
        return sorted(
            (
                (fingerprint, len(hosts))
                for fingerprint, hosts in self.hosts_by_cert.items()
                if len(hosts) >= threshold
            ),
            key=lambda item: -item[1],
        )

    @property
    def host_count(self) -> int:
        return len(self.certs_by_host)

    @property
    def certificate_count(self) -> int:
        return len(self.hosts_by_cert)


def host_inventory(
    enriched: EnrichedDataset, internal_only: bool = False
) -> HostInventory:
    """Build the server-side certificate inventory.

    `internal_only` restricts to campus-hosted servers (inbound
    connections), mirroring Zeek's known_certs behaviour of tracking
    local hosts.
    """
    certs_by_host: dict[str, set[str]] = defaultdict(set)
    hosts_by_cert: dict[str, set[str]] = defaultdict(set)
    for conn in enriched.connections:
        if internal_only and conn.direction != "inbound":
            continue
        leaf = conn.view.server_leaf
        if leaf is None:
            continue
        host = conn.view.ssl.id_resp_h
        certs_by_host[host].add(leaf.fingerprint)
        hosts_by_cert[leaf.fingerprint].add(host)
    return HostInventory(
        certs_by_host=dict(certs_by_host),
        hosts_by_cert=dict(hosts_by_cert),
    )


def render_host_inventory(inventory: HostInventory, top: int = 8) -> Table:
    table = Table(
        "Server certificate inventory (known_certs-style)",
        ["View", "Key", "Count"],
    )
    for host, count in inventory.hosts_with_many_certs()[:top]:
        table.add_row("host with many certs", host, count)
    for fingerprint, count in inventory.certs_on_many_hosts()[:top]:
        table.add_row("cert on many hosts", fingerprint[:16] + "...", count)
    table.add_note(
        f"{inventory.host_count} servers, {inventory.certificate_count} "
        "server certificates"
    )
    return table
