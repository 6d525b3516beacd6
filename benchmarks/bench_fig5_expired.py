"""Figure 5: expired client certificates in established connections.

Paper: inbound expired certs concentrate on University VPN (45.83%),
Local Organization (32.79%), Third Party Service (15.38%); outbound has
a cluster of 339 public-CA certs ~1,000 days expired at first sight —
337 issued by Apple (apple.com), 2 by Microsoft (azure.com /
azure-automation.net).
"""

from benchmarks.conftest import report
from repro.core import protocol, validity


def test_figure5_expired_certificates(benchmark, study, enriched):
    result = benchmark(
        lambda: protocol.run_analyses(enriched, ["figure5"])["figure5"].result()
    )
    assert result.inbound and result.outbound

    shares = result.inbound_association_shares()
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    # VPN and Local Organization lead inbound expired usage.
    assert ranked[0][0] in ("University VPN", "Local Organization")
    assert "University VPN" in shares

    # The outbound long-expired public cluster, Apple-dominated.
    cluster = result.outbound_cluster(min_days=700)
    assert cluster                                            # paper: 339 certs
    apple = sum(1 for u in cluster if (u.issuer_org or "") == "Apple")
    assert apple / len(cluster) > 0.7                         # paper: 337/339
    microsoft = [u for u in cluster if (u.issuer_org or "") == "Microsoft"]
    assert microsoft                                          # paper: 2 certs
    ms_slds = set()
    for usage in microsoft:
        ms_slds |= usage.slds
    assert ms_slds & {"azure.com", "azure-automation.net"}

    # Expired-for-over-1,000-days usage exists.
    assert any(u.days_expired_at_first_use > 1000 for u in
               result.inbound + result.outbound)

    report(
        validity.render_expired_report(result),
        "inbound: VPN 45.83 / LocalOrg 32.79 / 3rdParty 15.38; outbound "
        "cluster 337 Apple + 2 Microsoft at ~1,000 days expired",
    )
