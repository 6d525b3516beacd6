"""repro: reproduction of "Mutual TLS in Practice" (IMC 2024).

The package is layered bottom-up:

- ``repro.asn1`` — DER codec
- ``repro.x509`` — certificates, keys, CAs
- ``repro.trust`` — root stores and chain validation
- ``repro.tls`` — TLS handshake simulation and port/service registry
- ``repro.zeek`` — SSL.log / X509.log record model and TSV I/O
- ``repro.netsim`` — campus-network traffic simulator + CT log
- ``repro.text`` — rule-based NER, domain extraction, string classifiers
- ``repro.core`` — the paper's measurement/analysis pipeline

Quickstart::

    from repro.core.study import CampusStudy

    study = CampusStudy(seed=7, months=23, connections_per_month=2000)
    print(study.table1().render())      # Table 1: certificate statistics
"""

__version__ = "1.0.0"
