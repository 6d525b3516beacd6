"""Table 3: inbound mutual TLS by server association + client issuers.

Paper: University Health 64.91% of connections (clients 99.96% Private -
Education); University Server 30.55% (95.84% MissingIssuer); Local
Organization 2.53% (96.62% Public); Unknown 1.34% (87.34% MissingIssuer).
"""

from benchmarks.conftest import report
from repro.core import issuers, protocol


def test_table3_inbound_associations(benchmark, study, enriched):
    rows = benchmark(
        lambda: protocol.run_analyses(enriched, ["table3"])["table3"].result()
    )
    by_name = {r.association: r for r in rows}

    # Ranking: the health system carries the majority of inbound mTLS;
    # University Server is the clear #2.
    assert rows[0].association == "University Health"
    assert by_name["University Health"].connection_share > 0.40   # paper 64.91%
    assert by_name["University Server"].connection_share > 0.15   # paper 30.55%
    assert (
        by_name["University Health"].connection_share
        > by_name["University Server"].connection_share
        > by_name["University VPN"].connection_share
    )

    # Issuer patterns per association.
    assert by_name["University Health"].primary_issuer == "Private - Education"
    assert by_name["University Health"].primary_share > 0.9       # paper 99.96%
    assert by_name["University VPN"].primary_issuer == "Private - Education"
    assert by_name["University Server"].primary_issuer == "Private - MissingIssuer"
    assert by_name["University Server"].primary_share > 0.7       # paper 95.84%
    assert by_name["Local Organization"].primary_issuer in (
        "Public", "Private - Others",
    )  # paper: Public 96.62% (cohort noise at simulation scale)

    report(
        issuers.render_inbound_association_table(rows),
        "Health 64.91%/Education 99.96 | Server 30.55%/Missing 95.84 | "
        "LocalOrg 2.53%/Public 96.62 | Unknown 1.34%/Missing 87.34",
    )
