#!/usr/bin/env python3
"""Substrate demo: CAs, mutual-TLS handshakes, and the TLS 1.3 blind spot.

Usage::

    python examples/mtls_handshake_demo.py

Walks through the low-level building blocks the measurement pipeline
rests on:

1. build a root CA and issue server + client certificates,
2. run a mutual-TLS handshake and validate both chains,
3. show that under TLS 1.3 a passive monitor sees no certificates,
4. show dynamic protocol detection finding TLS on a non-standard port.
"""

import datetime as dt

from repro.tls import (
    ClientProfile,
    ServerProfile,
    TlsVersion,
    perform_handshake,
)
from repro.trust import ChainValidator, TrustStoreSet
from repro.x509 import CertificateAuthority, GeneralName, KeyFactory, Name
from repro.zeek import encode_client_hello_preamble, looks_like_tls
from repro.zeek.dpd import extract_sni

NOW = dt.datetime(2023, 6, 1, tzinfo=dt.timezone.utc)


def main() -> None:
    # 1. A CA hierarchy and two leaf certificates.
    keys = KeyFactory(mode="sim", seed=1)
    root = CertificateAuthority.create_root(
        Name.build(common_name="Demo Root CA", organization="Demo Trust"), keys
    )
    issuing = root.create_intermediate(Name.build(common_name="Demo Issuing CA"))
    server_cert, _ = issuing.issue(
        Name.build(common_name="api.campus.example"),
        now=NOW,
        sans=[GeneralName.dns("api.campus.example")],
    )
    client_cert, _ = issuing.issue(Name.build(common_name="device-0042"), now=NOW)
    print("Issued server certificate:", server_cert.subject.rfc4514())
    print("Issued client certificate:", client_cert.subject.rfc4514())
    print("Server cert serial:", server_cert.serial_hex)

    # 2. Mutual TLS at 1.2: the monitor sees both chains.
    result = perform_handshake(
        ClientProfile(
            certificate_chain=(client_cert, issuing.certificate),
            supported_versions=(TlsVersion.TLS_1_2,),
        ),
        ServerProfile(
            certificate_chain=(server_cert, issuing.certificate),
            requests_client_certificate=True,
            supported_versions=(TlsVersion.TLS_1_2,),
        ),
        sni="api.campus.example",
    )
    print(f"\nTLS 1.2 handshake: established={result.established}, "
          f"mutual={result.is_mutual}, monitor_sees_mutual={result.monitor_sees_mutual}")

    stores = TrustStoreSet.with_standard_stores()
    stores.store("mozilla-nss").add(root.certificate)
    validator = ChainValidator(stores)
    for label, chain in (("server", result.server_chain), ("client", result.client_chain)):
        outcome = validator.validate(chain, at=NOW)
        print(f"  {label} chain validation: {outcome.status.value}")

    # 3. The same exchange at TLS 1.3: certificates are encrypted.
    result13 = perform_handshake(
        ClientProfile(certificate_chain=(client_cert,)),
        ServerProfile(
            certificate_chain=(server_cert,), requests_client_certificate=True
        ),
        sni="api.campus.example",
    )
    print(f"\nTLS 1.3 handshake: version={result13.version.zeek_name}, "
          f"mutual(ground truth)={result13.is_mutual}, "
          f"monitor_sees_mutual={result13.monitor_sees_mutual}")
    print("  -> this is the §3.3 limitation: 40.86% of connections are dark")

    # 4. Dynamic protocol detection: TLS on port 20017 is still TLS.
    wire = encode_client_hello_preamble(sni="devices.campus.example")
    print("\nDPD on a FileWave-style flow (port 20017):")
    print(f"  looks_like_tls={looks_like_tls(wire)}, sni={extract_sni(wire)!r}")
    print(f"  (an HTTP flow: looks_like_tls="
          f"{looks_like_tls(b'GET / HTTP/1.1')})")


if __name__ == "__main__":
    main()
