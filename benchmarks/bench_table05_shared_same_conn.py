"""Table 5: the same certificate presented by BOTH endpoints.

Paper: private pattern (Globus Online 699 clients/700 days, Outset
Medical 4,403 clients) and public pattern (IdenTrust, GoDaddy, DigiCert
server certs reused as client certs); 7.49M inbound + 5.93M outbound
connections involved.
"""

from benchmarks.conftest import report
from repro.core import protocol, sharing


def test_table5_same_connection_sharing(benchmark, study, enriched):
    rows = benchmark(
        lambda: protocol.run_analyses(enriched, ["table5"])["table5"].result()
    )
    assert rows

    orgs = {r.issuer_org for r in rows}
    # The private-issuance pattern.
    assert "Globus Online" in orgs
    assert "Outset Medical" in orgs
    # The trusted-server-cert-reused-as-client pattern (gray rows).
    public_rows = [r for r in rows if r.issuer_public]
    assert public_rows
    public_orgs = {r.issuer_org for r in public_rows}
    assert public_orgs & {"IdenTrust", "GoDaddy.com, Inc.", "DigiCert Inc"}

    # Both directions occur; Globus appears with missing SNI.
    assert {r.direction for r in rows} == {"inbound", "outbound"}
    globus_rows = [r for r in rows if r.issuer_org == "Globus Online"]
    assert any(r.sld == "(missing SNI)" for r in globus_rows)

    # Long-lived practice: the biggest cohorts persist for months.
    assert max(r.activity_days for r in rows) > 250            # paper: 700 days

    report(
        sharing.render_same_connection_sharing(rows),
        "Globus 699 clients/700d, Outset 4,403/700d, psych.org 33/424d, "
        "IdenTrust 52/554d, GoDaddy 24/364d",
    )
