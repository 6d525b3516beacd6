"""Connection tuples (§5) and the TLS 1.3 blind spot (§3.3).

The paper defines a *connection tuple* as the unique combination of
(client, client certificate, server, server certificate) in mutual-TLS
connections, and uses tuple counts throughout §5. §3.3 quantifies the
monitor's blind spot: TLS 1.3 connections whose certificates are
encrypted (40.86% of connections, touching 25.35% of server IPs and
32.23% of client IPs in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core import protocol
from repro.core.dataset import ConnView, MtlsDataset
from repro.core.enrich import EnrichedDataset
from repro.core.report import Table, percentage

#: (client_ip, client cert fingerprint, server_ip, server cert fingerprint)
ConnectionTuple = tuple[str, str, str, str]


def connection_tuples(enriched: EnrichedDataset) -> set[ConnectionTuple]:
    """All unique mutual-TLS connection tuples (§5 'Connection tuple')."""
    tuples: set[ConnectionTuple] = set()
    for conn in enriched.mutual:
        tuples.add(
            (
                conn.view.ssl.id_orig_h,
                conn.view.client_leaf.fingerprint,
                conn.view.ssl.id_resp_h,
                conn.view.server_leaf.fingerprint,
            )
        )
    return tuples


def tuples_for_fingerprints(
    enriched: EnrichedDataset, fingerprints: set[str]
) -> set[ConnectionTuple]:
    """Unique tuples whose client or server certificate is in the set."""
    tuples: set[ConnectionTuple] = set()
    for conn in enriched.mutual:
        client_fp = conn.view.client_leaf.fingerprint
        server_fp = conn.view.server_leaf.fingerprint
        if client_fp in fingerprints or server_fp in fingerprints:
            tuples.add(
                (conn.view.ssl.id_orig_h, client_fp,
                 conn.view.ssl.id_resp_h, server_fp)
            )
    return tuples


@dataclass
class Tls13Blindspot:
    """§3.3: how much of the traffic the monitor cannot classify."""

    total_connections: int
    tls13_connections: int
    total_server_ips: int
    tls13_server_ips: int
    total_client_ips: int
    tls13_client_ips: int

    @property
    def connection_share(self) -> float:
        if not self.total_connections:
            return 0.0
        return self.tls13_connections / self.total_connections

    @property
    def server_ip_share(self) -> float:
        if not self.total_server_ips:
            return 0.0
        return self.tls13_server_ips / self.total_server_ips

    @property
    def client_ip_share(self) -> float:
        if not self.total_client_ips:
            return 0.0
        return self.tls13_client_ips / self.total_client_ips


def tls13_blindspot(dataset: MtlsDataset) -> Tls13Blindspot:
    """Quantify TLS 1.3 coverage over connections and endpoint IPs.

    Computed on the raw dataset (before interception filtering) — the
    blind spot is a property of the capture, not of the filtered view.
    """
    state = Tls13State()
    state.observe_batch([conn.ssl for conn in dataset.connections])
    return state.result()


def render_tls13_blindspot(blindspot: Tls13Blindspot) -> Table:
    table = Table(
        "§3.3: the TLS 1.3 blind spot (certificates invisible to the monitor)",
        ["Scope", "Total", "TLS 1.3", "%"],
    )
    table.add_row(
        "Connections", blindspot.total_connections, blindspot.tls13_connections,
        percentage(blindspot.tls13_connections, blindspot.total_connections),
    )
    table.add_row(
        "Server IPs", blindspot.total_server_ips, blindspot.tls13_server_ips,
        percentage(blindspot.tls13_server_ips, blindspot.total_server_ips),
    )
    table.add_row(
        "Client IPs", blindspot.total_client_ips, blindspot.tls13_client_ips,
        percentage(blindspot.tls13_client_ips, blindspot.total_client_ips),
    )
    table.add_note("paper: 40.86% of connections, 25.35% of server IPs, "
                   "32.23% of client IPs")
    return table


# ---------------------------------------------------------------------------
# Mergeable TLS 1.3 blind-spot state (registry partial + streaming v2)
# ---------------------------------------------------------------------------


class Tls13State:
    """Mergeable accumulator behind :func:`tls13_blindspot`.

    Tracks endpoint-IP sets (not just counts) so shard merges and
    streaming snapshots stay exact; ``state_dict`` emits sorted lists
    for deterministic serialization.
    """

    def __init__(self) -> None:
        self.total_connections = 0
        self.tls13_connections = 0
        self.server_ips: set[str] = set()
        self.client_ips: set[str] = set()
        self.tls13_server_ips: set[str] = set()
        self.tls13_client_ips: set[str] = set()

    def observe_batch(self, records: Sequence) -> None:
        """Fold a batch of *established* SSL records in."""
        tls13 = [ssl for ssl in records if ssl.version == "TLSv13"]
        self.total_connections += len(records)
        self.tls13_connections += len(tls13)
        self.server_ips.update([ssl.id_resp_h for ssl in records])
        self.client_ips.update([ssl.id_orig_h for ssl in records])
        self.tls13_server_ips.update([ssl.id_resp_h for ssl in tls13])
        self.tls13_client_ips.update([ssl.id_orig_h for ssl in tls13])

    def merge(self, other: "Tls13State") -> None:
        self.total_connections += other.total_connections
        self.tls13_connections += other.tls13_connections
        self.server_ips |= other.server_ips
        self.client_ips |= other.client_ips
        self.tls13_server_ips |= other.tls13_server_ips
        self.tls13_client_ips |= other.tls13_client_ips

    def result(self) -> Tls13Blindspot:
        return Tls13Blindspot(
            total_connections=self.total_connections,
            tls13_connections=self.tls13_connections,
            total_server_ips=len(self.server_ips),
            tls13_server_ips=len(self.tls13_server_ips),
            total_client_ips=len(self.client_ips),
            tls13_client_ips=len(self.tls13_client_ips),
        )

    def state_dict(self) -> dict:
        return {
            "total_connections": self.total_connections,
            "tls13_connections": self.tls13_connections,
            "server_ips": sorted(self.server_ips),
            "client_ips": sorted(self.client_ips),
            "tls13_server_ips": sorted(self.tls13_server_ips),
            "tls13_client_ips": sorted(self.tls13_client_ips),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Tls13State":
        out = cls()
        out.total_connections = int(state["total_connections"])
        out.tls13_connections = int(state["tls13_connections"])
        out.server_ips = set(state["server_ips"])
        out.client_ips = set(state["client_ips"])
        out.tls13_server_ips = set(state["tls13_server_ips"])
        out.tls13_client_ips = set(state["tls13_client_ips"])
        return out


class Tls13Partial(protocol.AnalysisPartial):
    """§3.3 blind spot — consumes the *raw* (pre-filter) dataset."""

    def __init__(self, context: protocol.AnalysisContext) -> None:
        self.state = Tls13State()

    def update_raw_batch(self, views: Sequence[ConnView]) -> None:
        self.state.observe_batch([view.ssl for view in views])

    def merge(self, other: "Tls13Partial") -> None:
        self.state.merge(other.state)

    def result(self) -> Tls13Blindspot:
        return self.state.result()

    def finalize(self) -> Table:
        return render_tls13_blindspot(self.result())


protocol.register(protocol.Analysis(
    name="tls13",
    title="§3.3: the TLS 1.3 blind spot (certificates invisible to the monitor)",
    factory=Tls13Partial,
    needs_raw=True,
))
