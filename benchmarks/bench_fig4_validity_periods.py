"""Figure 4: validity periods of client certificates by issuer category.

Paper: 7,911 client certs with 10k-40k-day validity (50 public / 7,861
private — 45.73% missing issuer, 37.58% corporations, 7.61% dummy); one
83,432-day (~228-year) outlier bound to tmdxdev.com.
"""

from benchmarks.conftest import report
from repro.core import protocol, validity


def test_figure4_validity_periods(benchmark, study, enriched):
    stats = benchmark(
        lambda: protocol.run_analyses(enriched, ["figure4"])["figure4"].result()
    )

    # The extreme tail exists and is overwhelmingly private-CA issued.
    assert stats.extreme_certificates > 0                     # paper: 7,911
    assert stats.extreme_private > stats.extreme_public       # paper: 7,861 vs 50

    # The single 228-year outlier, bound to tmdxdev.com.
    assert stats.longest_days > 80_000                        # paper: 83,432
    assert "tmdxdev.com" in stats.longest_slds
    assert stats.longest_issuer_org == "TMDX Development Corp"

    # Typical public-CA periods are far shorter than the extreme tail.
    public_median = stats.category_median("Public")
    if public_median:
        assert public_median < 10_000

    report(
        validity.render_validity_periods(stats),
        "7,911 certs at 10k-40k days (50 public/7,861 private); "
        "max 83,432 days at tmdxdev.com",
    )
