"""X.509 v3 extensions.

Implements the extensions the study cares about: Subject Alternative Name
(with the full set of GeneralName choices the paper discusses — DNS, IP,
email, URI), BasicConstraints, KeyUsage, ExtendedKeyUsage, and the
subject/authority key identifiers used to wire chains together.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from repro.asn1 import (
    ObjectIdentifier,
    OID,
    Tag,
    encode_bit_string,
    encode_boolean,
    encode_context,
    encode_integer,
    encode_octet_string,
    encode_oid,
    encode_sequence,
    read_single_tlv,
)
from repro.asn1.decoder import (
    Tlv,
    decode_bit_string,
    decode_boolean,
    decode_integer,
    decode_octet_string,
    decode_oid,
)
from repro.asn1.errors import DerDecodeError
from repro.asn1.tags import TagClass
from repro.x509.errors import CertificateError


class GeneralNameType(Enum):
    """GeneralName choices (RFC 5280 section 4.2.1.6) we model.

    The context tag number of each choice is the enum value.
    """

    EMAIL = 1  # rfc822Name, IA5String
    DNS = 2  # dNSName, IA5String
    URI = 6  # uniformResourceIdentifier, IA5String
    IP = 7  # iPAddress, OCTET STRING


@dataclass(frozen=True)
class GeneralName:
    """One SAN entry."""

    kind: GeneralNameType
    value: str

    def to_der(self) -> bytes:
        if self.kind is GeneralNameType.IP:
            try:
                packed = ipaddress.ip_address(self.value).packed
            except ValueError as exc:
                raise CertificateError(f"invalid IP in SAN: {self.value!r}") from exc
            return encode_context(self.kind.value, packed, constructed=False)
        try:
            content = self.value.encode("ascii")
        except UnicodeEncodeError:
            # Non-ASCII strings do appear in real SAN dNSName fields; the
            # paper's dataset is full of free-text SANs. Encode as UTF-8,
            # which tolerant parsers (and ours) accept.
            content = self.value.encode("utf-8")
        return encode_context(self.kind.value, content, constructed=False)

    @classmethod
    def from_tlv(cls, tlv: Tlv) -> "GeneralName":
        if tlv.tag.tag_class is not TagClass.CONTEXT:
            raise DerDecodeError(f"GeneralName must be context-tagged, got {tlv.tag!r}")
        try:
            kind = GeneralNameType(tlv.tag.number)
        except ValueError as exc:
            raise DerDecodeError(
                f"unsupported GeneralName choice [{tlv.tag.number}]"
            ) from exc
        if kind is GeneralNameType.IP:
            if len(tlv.content) == 4:
                value = str(ipaddress.IPv4Address(tlv.content))
            elif len(tlv.content) == 16:
                value = str(ipaddress.IPv6Address(tlv.content))
            else:
                raise DerDecodeError(f"bad iPAddress length {len(tlv.content)}")
            return cls(kind, value)
        return cls(kind, tlv.content.decode("utf-8", errors="replace"))

    @classmethod
    def dns(cls, value: str) -> "GeneralName":
        return cls(GeneralNameType.DNS, value)

    @classmethod
    def ip(cls, value: str) -> "GeneralName":
        return cls(GeneralNameType.IP, value)

    @classmethod
    def email(cls, value: str) -> "GeneralName":
        return cls(GeneralNameType.EMAIL, value)

    @classmethod
    def uri(cls, value: str) -> "GeneralName":
        return cls(GeneralNameType.URI, value)


@dataclass(frozen=True)
class SubjectAlternativeName:
    """The SAN extension value: GeneralNames ::= SEQUENCE OF GeneralName."""

    names: tuple[GeneralName, ...] = ()

    def to_der(self) -> bytes:
        return encode_sequence([name.to_der() for name in self.names])

    @classmethod
    def from_der(cls, data: bytes) -> "SubjectAlternativeName":
        members = read_single_tlv(data).reader().read_all()
        return cls(names=tuple(GeneralName.from_tlv(m) for m in members))

    def __iter__(self) -> Iterator[GeneralName]:
        return iter(self.names)

    def __bool__(self) -> bool:
        return bool(self.names)

    def of_type(self, kind: GeneralNameType) -> list[str]:
        return [n.value for n in self.names if n.kind is kind]

    @property
    def dns_names(self) -> list[str]:
        return self.of_type(GeneralNameType.DNS)

    @property
    def ip_addresses(self) -> list[str]:
        return self.of_type(GeneralNameType.IP)

    @property
    def emails(self) -> list[str]:
        return self.of_type(GeneralNameType.EMAIL)

    @property
    def uris(self) -> list[str]:
        return self.of_type(GeneralNameType.URI)


@dataclass(frozen=True)
class BasicConstraints:
    """BasicConstraints ::= SEQUENCE { cA BOOLEAN DEFAULT FALSE, ... }."""

    ca: bool = False
    path_length: int | None = None

    def to_der(self) -> bytes:
        members = []
        if self.ca:
            members.append(encode_boolean(True))
        if self.path_length is not None:
            members.append(encode_integer(self.path_length))
        return encode_sequence(members)

    @classmethod
    def from_der(cls, data: bytes) -> "BasicConstraints":
        reader = read_single_tlv(data).reader()
        ca = False
        path_length = None
        if not reader.at_end() and reader.peek_tag() == Tag.universal(0x01):
            ca = decode_boolean(reader.read_tlv())
        if not reader.at_end():
            path_length = decode_integer(reader.read_tlv())
        reader.finish()
        return cls(ca=ca, path_length=path_length)


@dataclass(frozen=True)
class KeyUsage:
    """KeyUsage bit string (subset of the nine defined bits)."""

    digital_signature: bool = False
    key_encipherment: bool = False
    key_cert_sign: bool = False
    crl_sign: bool = False

    _BITS = {
        "digital_signature": 0,
        "key_encipherment": 2,
        "key_cert_sign": 5,
        "crl_sign": 6,
    }

    def to_der(self) -> bytes:
        bits = 0
        for name, position in self._BITS.items():
            if getattr(self, name):
                bits |= 1 << (7 - position)
        if bits == 0:
            return encode_bit_string(b"", 0)
        value = bytes([bits])
        unused = _trailing_zero_bits(bits)
        return encode_bit_string(value, unused)

    @classmethod
    def from_der(cls, data: bytes) -> "KeyUsage":
        value, _unused = decode_bit_string(read_single_tlv(data))
        bits = value[0] if value else 0
        kwargs = {
            name: bool(bits & (1 << (7 - position)))
            for name, position in cls._BITS.items()
        }
        return cls(**kwargs)


def _trailing_zero_bits(octet: int) -> int:
    count = 0
    while octet and not octet & 1:
        octet >>= 1
        count += 1
    return min(count, 7)


@dataclass(frozen=True)
class ExtendedKeyUsage:
    """ExtKeyUsageSyntax ::= SEQUENCE OF KeyPurposeId."""

    purposes: tuple[ObjectIdentifier, ...] = ()

    def to_der(self) -> bytes:
        return encode_sequence([encode_oid(p) for p in self.purposes])

    @classmethod
    def from_der(cls, data: bytes) -> "ExtendedKeyUsage":
        members = read_single_tlv(data).reader().read_all()
        return cls(purposes=tuple(decode_oid(m) for m in members))

    @property
    def server_auth(self) -> bool:
        return OID.EKU_SERVER_AUTH in self.purposes

    @property
    def client_auth(self) -> bool:
        return OID.EKU_CLIENT_AUTH in self.purposes


@dataclass(frozen=True)
class Extension:
    """One certificate extension: OID, criticality, and DER-encoded value."""

    oid: ObjectIdentifier
    critical: bool
    value: bytes  # the extnValue content (inner DER, before OCTET STRING wrap)

    def to_der(self) -> bytes:
        members = [encode_oid(self.oid)]
        if self.critical:
            members.append(encode_boolean(True))
        members.append(encode_octet_string(self.value))
        return encode_sequence(members)

    @classmethod
    def from_tlv(cls, tlv: Tlv) -> "Extension":
        reader = tlv.reader()
        oid = decode_oid(reader.read_tlv())
        critical = False
        nxt = reader.read_tlv()
        if nxt.tag == Tag.universal(0x01):
            critical = decode_boolean(nxt)
            nxt = reader.read_tlv()
        value = decode_octet_string(nxt)
        reader.finish()
        return cls(oid=oid, critical=critical, value=value)

    # Convenience constructors -------------------------------------------------

    @classmethod
    def subject_alt_name(
        cls, names: Iterable[GeneralName], critical: bool = False
    ) -> "Extension":
        san = SubjectAlternativeName(tuple(names))
        return cls(OID.SUBJECT_ALT_NAME, critical, san.to_der())

    @classmethod
    def basic_constraints(
        cls, ca: bool, path_length: int | None = None, critical: bool = True
    ) -> "Extension":
        return cls(
            OID.BASIC_CONSTRAINTS, critical, BasicConstraints(ca, path_length).to_der()
        )

    @classmethod
    def key_usage(cls, usage: KeyUsage, critical: bool = True) -> "Extension":
        return cls(OID.KEY_USAGE, critical, usage.to_der())

    @classmethod
    def extended_key_usage(cls, purposes: Iterable[ObjectIdentifier]) -> "Extension":
        return cls(OID.EXTENDED_KEY_USAGE, False, ExtendedKeyUsage(tuple(purposes)).to_der())

    @classmethod
    def subject_key_identifier(cls, key_id: bytes) -> "Extension":
        return cls(OID.SUBJECT_KEY_IDENTIFIER, False, encode_octet_string(key_id))

    @classmethod
    def authority_key_identifier(cls, key_id: bytes) -> "Extension":
        # AuthorityKeyIdentifier ::= SEQUENCE { keyIdentifier [0] IMPLICIT ... }
        inner = encode_context(0, key_id, constructed=False)
        return cls(OID.AUTHORITY_KEY_IDENTIFIER, False, encode_sequence([inner]))
