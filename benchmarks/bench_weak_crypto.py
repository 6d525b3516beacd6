"""§5.1.1: weak cryptography among dummy-issuer certificates.

Paper: 3 'Internet Widgits Pty Ltd' certs at X.509 version 1.0 involving
154 unique connection tuples; 13 'Unspecified' certs with 1024-bit RSA
keys involving 83 tuples (NIST disallowed 1024-bit keys after 2013).
"""

from benchmarks.conftest import report
from repro.core import dummy, protocol


def test_weak_crypto_in_dummy_certs(benchmark, study, enriched):
    result = benchmark(
        lambda: protocol.run_analyses(enriched, ["weak-crypto"])["weak-crypto"].result()
    )

    # At least one weak-crypto class materializes at bench scale, and
    # both are tiny relative to the population — matching the paper's
    # "alarming but rare" framing.
    total_weak = len(result.v1_fingerprints) + len(result.weak_key_fingerprints)
    assert total_weak >= 1
    assert total_weak < 0.05 * len(enriched.profiles)

    # Every flagged certificate is genuinely defective.
    for fp in result.v1_fingerprints:
        assert enriched.profiles[fp].record.version == 1
    for fp in result.weak_key_fingerprints:
        assert enriched.profiles[fp].record.key_length <= 1024

    report(
        dummy.render_weak_crypto(result),
        "3 v1 certs / 154 tuples; 13 certs with 1024-bit keys / 83 tuples",
    )
