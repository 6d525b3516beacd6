"""Figure 1: monthly share of TLS connections using mutual TLS.

Paper: 1.99% (May 2022) rising to 3.61% (Mar 2024); inbound health-system
surge Oct-Dec 2023 and a Rapid7-driven outbound decline in the same
window.
"""

from benchmarks.conftest import report
from repro.core import prevalence, protocol


def test_figure1_monthly_mutual_share(benchmark, study, enriched):
    series = benchmark(
        lambda: protocol.run_analyses(enriched, ["figure1"])["figure1"].result()
    )
    assert len(series) == 23

    first, last = series[0], series[-1]
    # Near doubling across the campaign window.
    assert 0.012 <= first.share <= 0.030                      # paper 1.99%
    assert 0.028 <= last.share <= 0.048                       # paper 3.61%
    assert last.share > first.share * 1.4

    by_label = {p.label: p.share for p in series}
    # The Oct-Nov 2023 surge is a local peak; Dec 2023 dips.
    assert by_label["2023-10"] > by_label["2023-08"]
    assert by_label["2023-11"] > by_label["2023-09"]
    assert by_label["2023-12"] < by_label["2023-11"]

    report(
        prevalence.render_monthly_share(series),
        "1.99% -> 3.61% with Oct-Nov 2023 surge and Dec 2023 dip",
    )
