"""Figure 2: outbound mutual-TLS flows (server kind, TLD, client issuer).

Paper: cloud SLDs dominate (amazonaws.com 28.51%, rapid7.com 27.44%,
gpcloudservice.com 13.33%); 37.84% of outbound client certificates lack
a valid issuer; 45.71% of public-server connections pair with
missing-issuer client certs.
"""

from benchmarks.conftest import report
from repro.core import issuers, protocol


def test_figure2_outbound_flows(benchmark, study, enriched):
    flows = benchmark(
        lambda: protocol.run_analyses(enriched, ["figure2"])["figure2"].result()
    )

    # Missing issuer is the single largest client-issuer category.
    top_category, _ = flows.client_categories.most_common(1)[0]
    assert top_category == "Private - MissingIssuer"
    assert 0.18 < flows.missing_issuer_share < 0.55           # paper 37.84%

    # Cloud/security providers lead the destination ranking.
    top_slds = [sld for sld, _ in flows.sld_connections.most_common(5)]
    assert "amazonaws.com" in top_slds                         # paper 28.51%
    assert "rapid7.com" in top_slds or "gpcloudservice.com" in top_slds

    # A sizable chunk of public-server connections uses issuer-less
    # client certs (the paper's 45.71% headline).
    assert flows.public_server_missing_client_share > 0.04

    # The flows include both Public- and Private-server connections.
    server_kinds = {server for (server, _tld, _cat) in flows.flows}
    assert server_kinds == {"Public", "Private"}

    report(
        issuers.render_outbound_flows(flows),
        "amazonaws 28.51% / rapid7 27.44% / gpcloudservice 13.33%; "
        "missing client issuer 37.84%; public-server x missing 45.71%",
    )
