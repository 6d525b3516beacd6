"""§3.3 generalizability: campus vs residential network profiles.

The paper argues its patterns generalize to environments with rigorous
device management (hospitals, enterprises) but NOT to residential
networks. This bench runs the pipeline on both profiles and verifies the
contrasts the paper predicts: mutual TLS collapses, the client-cert
population vanishes, and TLS 1.3 darkness grows on the residential side.
"""

from benchmarks.conftest import report
from repro.core import protocol, tuples
from repro.core.report import Table
from repro.core.study import CampusStudy
from repro.netsim import ScenarioConfig


def test_generalizability_campus_vs_residential(benchmark, study):
    def run_residential():
        residential = CampusStudy(
            config=ScenarioConfig.residential(
                seed=7, months=12, connections_per_month=1200
            )
        )
        return residential.run()

    residential = benchmark.pedantic(run_residential, rounds=1, iterations=1)
    campus = study.run()

    def result(enriched, name):
        return protocol.run_analyses(enriched, [name])[name].result()

    campus_series = result(campus.enriched, "figure1")
    residential_series = result(residential.enriched, "figure1")
    campus_share = sum(p.share for p in campus_series) / len(campus_series)
    residential_share = (
        sum(p.share for p in residential_series) / len(residential_series)
    )
    # Mutual TLS is an order of magnitude rarer at home.
    assert residential_share < campus_share / 3

    campus_stats = {r.label: r for r in result(campus.enriched, "table1")}
    residential_stats = {
        r.label: r for r in result(residential.enriched, "table1")
    }
    # Client certificates (managed devices) mostly disappear.
    campus_client_ratio = campus_stats["Client"].total / campus_stats["Total"].total
    residential_client_ratio = (
        residential_stats["Client"].total / residential_stats["Total"].total
    )
    assert residential_client_ratio < campus_client_ratio

    # The TLS 1.3 blind spot is larger on the residential side.
    campus_dark = tuples.tls13_blindspot(campus.dataset).connection_share
    residential_dark = tuples.tls13_blindspot(residential.dataset).connection_share
    assert residential_dark > campus_dark

    # No interception middleboxes at home.
    assert not residential.enriched.interception.flagged_issuers

    table = Table(
        "§3.3 generalizability: campus vs residential",
        ["Metric", "Campus", "Residential"],
    )
    table.add_row("avg mutual share", f"{100 * campus_share:.2f}%",
                  f"{100 * residential_share:.2f}%")
    table.add_row("client certs / all certs", f"{100 * campus_client_ratio:.1f}%",
                  f"{100 * residential_client_ratio:.1f}%")
    table.add_row("TLS 1.3 share", f"{100 * campus_dark:.1f}%",
                  f"{100 * residential_dark:.1f}%")
    table.add_row("interception issuers",
                  len(campus.enriched.interception.flagged_issuers),
                  len(residential.enriched.interception.flagged_issuers))
    report(table, "the paper's campus patterns do not transfer to "
                  "residential networks — reproduced by construction")
