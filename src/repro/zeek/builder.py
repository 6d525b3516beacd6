"""Turn simulated connections into linked ssl.log / x509.log streams."""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from repro.tls.connection import ConnectionRecord
from repro.x509 import Certificate
from repro.zeek.records import SslRecord, X509Record, make_file_uid


@dataclass
class ZeekLogs:
    """The two joined log streams produced by one monitoring session."""

    ssl: list[SslRecord] = field(default_factory=list)
    x509: list[X509Record] = field(default_factory=list)

    def x509_by_fuid(self) -> dict[str, X509Record]:
        return {record.fuid: record for record in self.x509}


class ZeekLogBuilder:
    """Observes connections and emits ssl/x509 records.

    Mirrors the monitor's perspective: only `observable_*` chains are
    logged (TLS 1.3 hides certificates), each unique certificate gets one
    x509.log row keyed by a stable fuid, and only the fields a real
    x509.log carries are recorded.
    """

    def __init__(self, fuid_start: int = 0) -> None:
        self._logs = ZeekLogs()
        self._fuid_by_fingerprint: dict[str, str] = {}
        self._fuid_counter = fuid_start

    def observe(self, connection: ConnectionRecord) -> SslRecord:
        """Record one connection; returns the ssl.log row."""
        handshake = connection.handshake
        server_fuids = self._register_chain(
            handshake.observable_server_chain, connection.timestamp
        )
        client_fuids = self._register_chain(
            handshake.observable_client_chain, connection.timestamp
        )
        record = SslRecord(
            ts=connection.timestamp,
            uid=connection.uid,
            id_orig_h=connection.client_ip,
            id_orig_p=connection.client_port,
            id_resp_h=connection.server_ip,
            id_resp_p=connection.server_port,
            version=handshake.version.zeek_name,
            cipher=handshake.cipher.value,
            server_name=handshake.sni,
            established=handshake.established,
            cert_chain_fuids=server_fuids,
            client_cert_chain_fuids=client_fuids,
            resumed=handshake.resumed,
        )
        self._logs.ssl.append(record)
        return record

    @property
    def logs(self) -> ZeekLogs:
        return self._logs

    def fuid_for(self, cert: Certificate) -> str | None:
        """The fuid assigned to a certificate, if it has been observed."""
        return self._fuid_by_fingerprint.get(cert.fingerprint())

    def _register_chain(
        self, chain: tuple[Certificate, ...], ts: _dt.datetime
    ) -> tuple[str, ...]:
        return tuple(self._register_certificate(cert, ts) for cert in chain)

    def _register_certificate(self, cert: Certificate, ts: _dt.datetime) -> str:
        fingerprint = cert.fingerprint()
        existing = self._fuid_by_fingerprint.get(fingerprint)
        if existing is not None:
            return existing
        self._fuid_counter += 1
        fuid = make_file_uid(self._fuid_counter)
        self._fuid_by_fingerprint[fingerprint] = fuid
        constraints = cert.basic_constraints
        san = cert.subject_alternative_name
        eku = cert.extended_key_usage
        eku_names = tuple(p.name for p in eku.purposes) if eku else ()
        self._logs.x509.append(
            X509Record(
                ts=ts,
                fuid=fuid,
                fingerprint=fingerprint,
                version=cert.version,
                serial=cert.serial_hex,
                subject=cert.subject.rfc4514(),
                issuer=cert.issuer.rfc4514(),
                not_valid_before=cert.not_valid_before,
                not_valid_after=cert.not_valid_after,
                key_alg=cert.public_key.algorithm_oid.name,
                sig_alg=cert.signature_algorithm.oid.name,
                key_length=cert.key_bits,
                san_dns=tuple(san.dns_names),
                san_uri=tuple(san.uris),
                san_email=tuple(san.emails),
                san_ip=tuple(san.ip_addresses),
                basic_constraints_ca=None if constraints is None else constraints.ca,
                eku=eku_names,
            )
        )
        return fuid
