"""Property-based pipeline invariants across random small scenarios.

These run the whole simulate → enrich → analyze chain on tiny random
configurations and assert structural invariants that must hold for ANY
input — the pipeline-level analogue of the per-module property tests.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import cnsan, prevalence, services
from repro.core.dataset import MtlsDataset
from repro.core.enrich import Enricher
from repro.netsim import ScenarioConfig, TrafficGenerator

configs = st.builds(
    ScenarioConfig,
    seed=st.integers(0, 10_000),
    months=st.integers(1, 4),
    connections_per_month=st.integers(60, 250),
)


def _run(config: ScenarioConfig):
    simulation = TrafficGenerator(config).generate()
    enricher = Enricher(bundle=simulation.trust_bundle, ct_log=simulation.ct_log)
    return simulation, enricher.enrich(MtlsDataset.from_logs(simulation.logs))


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(config=configs)
def test_pipeline_invariants(config):
    simulation, enriched = _run(config)

    # 1. Connection accounting: every generated month appears; totals add up.
    series = prevalence.monthly_mutual_share(enriched)
    assert len(series) <= config.months
    assert sum(p.total_connections for p in series) == len(enriched.connections)

    # 2. Certificate accounting: Table 1 partitions exactly.
    rows = {r.label: r for r in prevalence.certificate_statistics(enriched)}
    assert rows["Total"].total == rows["Server"].total + rows["Client"].total
    assert rows["Server"].total == (
        rows["Server/Public"].total + rows["Server/Private"].total
    )
    assert rows["Client"].total == (
        rows["Client/Public"].total + rows["Client/Private"].total
    )
    for row in rows.values():
        assert 0 <= row.mutual <= row.total

    # 3. Mutual implies both leaves present; TLS 1.3 implies neither.
    for conn in enriched.connections:
        if conn.is_mutual:
            assert conn.view.server_leaf is not None
            assert conn.view.client_leaf is not None
        if conn.view.ssl.version == "TLSv13":
            assert not conn.is_mutual

    # 4. Service shares are probabilities summing to ≤ 1 per quadrant.
    breakdown = services.service_breakdown(enriched)
    for quadrant in (
        breakdown.inbound_mutual, breakdown.outbound_mutual,
        breakdown.inbound_nonmutual, breakdown.outbound_nonmutual,
    ):
        assert sum(row.share for row in quadrant) <= 1.0 + 1e-9

    # 5. cnsan populations partition the mutual certificates.
    mutual = cnsan.mutual_population(enriched)
    shared = cnsan.shared_population(enriched)
    mutual_fps = {p.fingerprint for p in mutual}
    shared_fps = {p.fingerprint for p in shared}
    assert not mutual_fps & shared_fps
    total_mutual = sum(1 for p in enriched.profiles.values() if p.used_in_mutual)
    assert len(mutual_fps) + len(shared_fps) == total_mutual

    # 6. The interception filter never excludes a mutual-TLS certificate
    # (middleboxes only fake server certs in non-mutual traffic here).
    for fp in enriched.interception.excluded_fingerprints:
        assert fp not in enriched.profiles
