"""Ablation: what happens to Table 1 without the interception filter?

The paper filters 8.4% of certificates before analysis (§3.2). Skipping
the filter pollutes the dataset with middlebox-minted certs: they are
private-CA 'server certificates' that never do mutual TLS, so the
private-server population inflates and its mutual share drops.
"""

from benchmarks.conftest import report
from repro.core import prevalence
from repro.core.dataset import MtlsDataset
from repro.core.enrich import Enricher
from repro.core.report import Table


def test_ablation_interception_filter(benchmark, study, simulation):
    dataset = MtlsDataset.from_logs(simulation.logs)

    def run_unfiltered():
        enricher = Enricher(
            bundle=simulation.trust_bundle,
            ct_log=simulation.ct_log,
            filter_interception=False,
        )
        return prevalence.certificate_statistics(enricher.enrich(dataset))

    unfiltered = benchmark(run_unfiltered)
    filtered = prevalence.certificate_statistics(study.enriched)

    off = {r.label: r for r in unfiltered}
    on = {r.label: r for r in filtered}

    # The unfiltered dataset has strictly more (fake) private server certs.
    assert off["Server/Private"].total > on["Server/Private"].total
    # Their pollution dilutes the private-server mutual share.
    assert off["Server/Private"].mutual_share < on["Server/Private"].mutual_share
    # Client-side statistics are untouched by interception.
    assert off["Client"].total == on["Client"].total

    table = Table(
        "Ablation: interception filter on/off (Table 1 deltas)",
        ["Row", "Total (on)", "Total (off)", "Mutual % (on)", "Mutual % (off)"],
    )
    for label in ("Total", "Server/Private", "Server/Public", "Client"):
        table.add_row(
            label, on[label].total, off[label].total,
            f"{100 * on[label].mutual_share:.1f}",
            f"{100 * off[label].mutual_share:.1f}",
        )
    report(table, "the filter removes 8.4% of certs; without it the "
                  "private-server population is inflated by proxy certs")
