"""Table 2: prominent services by server port, mutual vs non-mutual."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.core import protocol
from repro.core.enrich import EnrichedConn
from repro.core.report import Table
from repro.tls.ports import ServiceRegistry, default_registry

#: The four quadrants, in the paper's presentation order.
_QUADRANTS = (
    ("inbound", True), ("outbound", True),
    ("inbound", False), ("outbound", False),
)


@dataclass
class ServiceRow:
    port_group: str
    service: str
    connections: int
    share: float


@dataclass
class ServiceBreakdown:
    """The four quadrants of Table 2."""

    inbound_mutual: list[ServiceRow]
    outbound_mutual: list[ServiceRow]
    inbound_nonmutual: list[ServiceRow]
    outbound_nonmutual: list[ServiceRow]


def _rank(
    counter: Counter, registry: ServiceRegistry, top: int
) -> list[ServiceRow]:
    total = sum(counter.values())
    # Deterministic ranking: ties broken by port-group label so shard
    # order can never reshuffle equal counts.
    ranked = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
    rows = []
    for port_group, count in ranked[:top]:
        sample_port = int(port_group.split("-")[0])
        rows.append(
            ServiceRow(
                port_group=port_group,
                service=registry.lookup(sample_port).label,
                connections=count,
                share=count / total if total else 0.0,
            )
        )
    return rows


class Table2Partial(protocol.AnalysisPartial):
    """Per-quadrant server-port counters (Table 2), ranked per direction
    × mutual quadrant at finalize.

    Port ranges known to the registry (e.g. Globus' 50000-51000) are
    collapsed onto a single row, as the paper does.
    """

    def __init__(
        self,
        context: protocol.AnalysisContext,
        registry: ServiceRegistry | None = None,
        top: int = 5,
    ) -> None:
        self._registry = registry or default_registry()
        self._top = top
        self.counters: dict[tuple[str, bool], Counter] = {
            quadrant: Counter() for quadrant in _QUADRANTS
        }

    def update_batch(self, conns: Sequence[EnrichedConn]) -> None:
        # One port-group lookup per distinct (quadrant, port) of the batch.
        ports = Counter(
            (conn.direction, conn.is_mutual, conn.view.ssl.id_resp_p)
            for conn in conns
        )
        group_key = self._registry.group_key
        for (direction, mutual, port), count in ports.items():
            self.counters[(direction, mutual)][group_key(port)] += count

    def merge(self, other: "Table2Partial") -> None:
        for quadrant, counter in other.counters.items():
            self.counters[quadrant].update(counter)

    def result(self) -> ServiceBreakdown:
        registry, top = self._registry, self._top
        return ServiceBreakdown(
            inbound_mutual=_rank(self.counters[("inbound", True)], registry, top),
            outbound_mutual=_rank(self.counters[("outbound", True)], registry, top),
            inbound_nonmutual=_rank(self.counters[("inbound", False)], registry, top),
            outbound_nonmutual=_rank(self.counters[("outbound", False)], registry, top),
        )

    def finalize(self) -> Table:
        return render_service_breakdown(self.result())


protocol.register(protocol.Analysis(
    name="table2",
    title="Table 2: prominent services, mutual vs non-mutual TLS",
    factory=Table2Partial,
))


def render_service_breakdown(breakdown: ServiceBreakdown) -> Table:
    table = Table(
        "Table 2: prominent services, mutual vs non-mutual TLS",
        ["Quadrant", "Rank", "Port", "%", "Service"],
    )
    quadrants = (
        ("inbound + mutual", breakdown.inbound_mutual),
        ("outbound + mutual", breakdown.outbound_mutual),
        ("inbound + non-mutual", breakdown.inbound_nonmutual),
        ("outbound + non-mutual", breakdown.outbound_nonmutual),
    )
    for label, rows in quadrants:
        for rank, row in enumerate(rows, start=1):
            table.add_row(
                label, rank, row.port_group, f"{100 * row.share:.2f}", row.service
            )
    return table
