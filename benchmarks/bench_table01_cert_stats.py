"""Table 1: unique certificates by role/issuer kind and mutual-TLS usage.

Paper: total 9,472,584 certs, 59.43% in mTLS; server 38.45% in mTLS
(public 0.22%, private 82.78%); client 94.34% in mTLS.
"""

from benchmarks.conftest import report
from repro.core import prevalence, protocol


def test_table1_certificate_statistics(benchmark, study, enriched):
    rows = benchmark(
        lambda: protocol.run_analyses(enriched, ["table1"])["table1"].result()
    )
    by_label = {r.label: r for r in rows}

    # Shape: the majority of certificates participates in mutual TLS.
    assert 0.40 < by_label["Total"].mutual_share < 0.80       # paper 59.43%
    # Server certs: a minority in mTLS...
    assert 0.20 < by_label["Server"].mutual_share < 0.60      # paper 38.45%
    # ...driven almost entirely by private CAs...
    assert by_label["Server/Private"].mutual_share > 0.60     # paper 82.78%
    # ...while public-CA server certs almost never appear in mTLS.
    assert by_label["Server/Public"].mutual_share < 0.15      # paper 0.22%
    # Client certs overwhelmingly exist *for* mutual TLS.
    assert by_label["Client"].mutual_share > 0.85             # paper 94.34%
    # Private CAs dominate client issuance.
    assert by_label["Client/Private"].total > by_label["Client/Public"].total

    report(
        prevalence.render_certificate_statistics(rows),
        "total 59.43% | server 38.45% (public 0.22% / private 82.78%) | "
        "client 94.34% (public 87.18% / private 94.38%)",
    )
