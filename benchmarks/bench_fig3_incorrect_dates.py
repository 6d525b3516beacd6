"""Figure 3 / Tables 11-12: certificates with inverted validity dates.

Paper: all misconfigured certs have notBefore after notAfter (one with
identical timestamps); cohorts include rcgen (1975->1757), IDrive
(2019->1849, BOTH endpoints, 718 clients, 701 days), Honeywell
(2021->1815), SDS (1970->1831, both endpoints), media-server
(2157->2023, a GeneralizedTime server cert).
"""

from benchmarks.conftest import report
from repro.core import protocol, validity


def test_figure3_incorrect_dates(benchmark, study, enriched):
    rows = benchmark(
        lambda: protocol.run_analyses(enriched, ["figure3"])["figure3"].result()
    )
    assert rows

    orgs = {r.issuer_org for r in rows}
    assert "IDrive Inc Certificate Authority" in orgs
    assert "Honeywell International Inc" in orgs
    assert orgs & {"rcgen", "SDS", "media-server", "IceLink"}

    # The IDrive cohort: inverted 2019 -> 1849, long activity.
    idrive = next(r for r in rows if r.issuer_org == "IDrive Inc Certificate Authority")
    assert 2019 in idrive.not_before_years
    assert 1849 in idrive.not_after_years
    assert idrive.activity_days > 200                          # paper: 701 days

    # Server-side inverted certs exist too (media-server, 2157 -> 2023).
    assert any(r.side == "server" for r in rows)

    report(
        validity.render_incorrect_dates(rows),
        "rcgen 1975->1757; IDrive 2019->1849 (718 clients, 701d); "
        "Honeywell 2021->1815; SDS 1970->1831; media-server 2157->2023",
    )


def test_table12_inverted_both_endpoints(benchmark, study, enriched):
    rows = benchmark(validity.incorrect_dates_both_endpoints, enriched)
    assert rows

    slds = set()
    for row in rows:
        slds |= row.slds
    # idrive.com and the SDS missing-SNI cohort invert BOTH endpoints.
    assert "idrive.com" in slds
    assert "(missing SNI)" in slds

    report(
        validity.render_incorrect_dates(rows),
        "Table 12: idrive.com (IDrive CA both ends, 718 clients, 701d) "
        "and missing-SNI SDS (17 clients, 474d)",
    )
