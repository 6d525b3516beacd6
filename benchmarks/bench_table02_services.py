"""Table 2: prominent services by server port, mutual vs non-mutual.

Paper (mutual): inbound 443 63.60%, 20017 FileWave 24.89%, 636 LDAPS
6.36%, 50000-51000 Globus 1.17%, 9093 Outset 0.26%; outbound 443 83.17%,
8883 MQTT 3.69%, 25 SMTP 3.38%, 465 SMTPS 3.32%, 9997 Splunk 1.48%.
Non-mutual: inbound 443 85.18%; outbound 443 99.15%.
"""

from benchmarks.conftest import report
from repro.core import protocol, services


def test_table2_service_breakdown(benchmark, study, enriched):
    breakdown = benchmark(
        lambda: protocol.run_analyses(enriched, ["table2"])["table2"].result()
    )

    def shares(rows):
        return {row.port_group: row.share for row in rows}

    inbound_mutual = shares(breakdown.inbound_mutual)
    # HTTPS leads, FileWave is the clear #2, LDAPS present.
    assert breakdown.inbound_mutual[0].port_group == "443"
    assert 0.45 < inbound_mutual["443"] < 0.80                # paper 63.60%
    assert breakdown.inbound_mutual[1].port_group == "20017"
    assert 0.10 < inbound_mutual["20017"] < 0.40              # paper 24.89%
    assert "636" in inbound_mutual                            # paper 6.36%

    outbound_mutual = shares(breakdown.outbound_mutual)
    assert breakdown.outbound_mutual[0].port_group == "443"
    assert outbound_mutual["443"] > 0.70                      # paper 83.17%
    mail_and_mqtt = {"8883", "25", "465"} & set(outbound_mutual)
    assert mail_and_mqtt, "MQTT/SMTP ports missing from outbound mutual"

    inbound_plain = shares(breakdown.inbound_nonmutual)
    assert inbound_plain["443"] > 0.75                        # paper 85.18%
    outbound_plain = shares(breakdown.outbound_nonmutual)
    assert outbound_plain["443"] > 0.95                       # paper 99.15%
    # The crossover: HTTPS dominance is weakest in inbound mutual.
    assert inbound_mutual["443"] < outbound_plain["443"]

    report(
        services.render_service_breakdown(breakdown),
        "in-mutual 443 63.60 / 20017 24.89 / 636 6.36 / 50000-51000 1.17; "
        "out-mutual 443 83.17 / 8883 3.69 / 25 3.38; in-plain 443 85.18; "
        "out-plain 443 99.15",
    )
