"""Table 4: certificates with dummy issuer organizations in mutual TLS.

Paper rows include 'Internet Widgits Pty Ltd' (OpenSSL default),
'Default Company Ltd', 'Unspecified' (566,996 clients outbound), and
'Acme Co'; all such connections were successfully established.
"""

from benchmarks.conftest import report
from repro.core import dummy, protocol


def test_table4_dummy_issuers(benchmark, study, enriched):
    rows = benchmark(
        lambda: protocol.run_analyses(enriched, ["table4"])["table4"].result()
    )
    assert rows

    orgs = {r.issuer_org for r in rows}
    assert "Internet Widgits Pty Ltd" in orgs
    assert "Unspecified" in orgs
    assert "Default Company Ltd" in orgs

    # Both client-side and server-side dummy certs occur, in both
    # directions, exactly as in Table 4.
    assert {r.side for r in rows} == {"client", "server"}
    assert "outbound" in {r.direction for r in rows}

    # 'Unspecified' is the biggest outbound client cohort.
    outbound_client = [
        r for r in rows if r.direction == "outbound" and r.side == "client"
    ]
    assert outbound_client
    biggest = max(outbound_client, key=lambda r: len(r.clients))
    assert biggest.issuer_org in ("Unspecified", "Internet Widgits Pty Ltd")

    report(
        dummy.render_dummy_issuer_table(rows),
        "Widgits/Default/Unspecified/Acme; Unspecified is the largest "
        "outbound client cohort (566,996 clients at paper scale)",
    )
