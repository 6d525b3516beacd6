"""§5.1.2: dummy certificate serial numbers (collisions within issuers).

Paper: serial 00 from 'Globus Online' is the top collision (38,965
client + 38,928 server certs, same cert both ends, 14-day re-issuance);
'GuardiCore' uses 01 for all clients and 03E8 for all servers;
'ViptelaClient' stamps 024680 on everything.
"""

from benchmarks.conftest import report
from repro.core import dummy, protocol


def test_serial_collisions_inbound(benchmark, study, enriched):
    result = benchmark(
        lambda: protocol.run_analyses(enriched, ["serials-inbound"])["serials-inbound"].result()
    )
    assert result.groups

    globus = [g for g in result.groups if g.issuer_org == "Globus Online"]
    assert globus, "Globus Online collision group missing"
    top = globus[0]
    assert top.serial == "00"
    # Re-issuance churn: many unique certificates under one serial.
    assert len(top.fingerprints) >= 5                       # paper: 38,965
    # The same certificates serve both roles.
    assert top.server_certs > 0 and top.client_certs > 0

    viptela = [g for g in result.groups if g.issuer_org == "ViptelaClient"]
    assert viptela
    assert viptela[0].serial == "024680"

    report(
        dummy.render_serial_collisions(result),
        "inbound: Globus serial 00, 38,965 certs, 7.49M conns; "
        "ViptelaClient 024680",
    )


def test_serial_collisions_outbound(benchmark, study, enriched):
    result = benchmark(
        lambda: protocol.run_analyses(enriched, ["serials-outbound"])["serials-outbound"].result()
    )
    guardicore = {g.serial: g for g in result.groups if g.issuer_org == "GuardiCore"}
    assert set(guardicore) == {"01", "03E8"}                # paper: 01 / 03E8
    # Client serial 01 covers only client certs; 03E8 only servers.
    assert guardicore["01"].client_certs >= guardicore["01"].server_certs
    assert guardicore["03E8"].server_certs >= guardicore["03E8"].client_certs

    report(
        dummy.render_serial_collisions(result),
        "outbound: GuardiCore clients all 01 (57 certs), servers all "
        "03E8 (43 certs), 904 conns, missing SNIs",
    )
