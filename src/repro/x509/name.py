"""X.501 distinguished names (subject/issuer)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.asn1 import (
    ObjectIdentifier,
    OID,
    encode_oid,
    encode_printable_string,
    encode_sequence,
    encode_set,
    encode_utf8_string,
    read_single_tlv,
)
from repro.asn1.decoder import Tlv, decode_oid, decode_string
from repro.asn1.encoder import DerEncodeError, encode_ia5_string
from repro.asn1.oid import DN_SHORT_NAMES
from repro.x509.errors import NameError_

_PRINTABLE_ALLOWED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 '()+,-./:=?"
)


@dataclass(frozen=True)
class NameAttribute:
    """One AttributeTypeAndValue, e.g. CN=example.com."""

    oid: ObjectIdentifier
    value: str

    def to_der(self) -> bytes:
        # emailAddress is an IA5String per PKCS#9; everything else is
        # PrintableString when possible, UTF8String otherwise.
        if self.oid == OID.EMAIL_ADDRESS or self.oid == OID.DOMAIN_COMPONENT:
            try:
                encoded_value = encode_ia5_string(self.value)
            except DerEncodeError:
                encoded_value = encode_utf8_string(self.value)
        elif set(self.value) <= _PRINTABLE_ALLOWED:
            encoded_value = encode_printable_string(self.value)
        else:
            encoded_value = encode_utf8_string(self.value)
        return encode_sequence([encode_oid(self.oid), encoded_value])

    @classmethod
    def from_tlv(cls, tlv: Tlv) -> "NameAttribute":
        reader = tlv.reader()
        oid = decode_oid(reader.read_tlv())
        value = decode_string(reader.read_tlv())
        reader.finish()
        return cls(oid=oid, value=value)

    @property
    def short_name(self) -> str:
        return DN_SHORT_NAMES.get(self.oid.dotted, self.oid.dotted)

    def rfc4514(self) -> str:
        escaped = self.value
        for char in ("\\", ",", "+", '"', ";", "<", ">"):
            escaped = escaped.replace(char, "\\" + char)
        if escaped.startswith(("#", " ")):
            escaped = "\\" + escaped
        return f"{self.short_name}={escaped}"


@dataclass(frozen=True)
class RelativeDistinguishedName:
    """A SET of attributes; nearly always a singleton in practice."""

    attributes: tuple[NameAttribute, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise NameError_("RDN must contain at least one attribute")

    def to_der(self) -> bytes:
        return encode_set([attr.to_der() for attr in self.attributes])

    @classmethod
    def from_tlv(cls, tlv: Tlv) -> "RelativeDistinguishedName":
        attrs = tuple(NameAttribute.from_tlv(member) for member in tlv.reader().read_all())
        return cls(attributes=attrs)


@dataclass(frozen=True)
class Name:
    """An ordered sequence of RDNs.

    An empty `rdns` tuple is a legal X.509 name (the paper's
    `Private - MissingIssuer` category corresponds to issuers that carry
    no organization — often no attributes at all).
    """

    rdns: tuple[RelativeDistinguishedName, ...] = ()

    @classmethod
    def build(cls, **kwargs: str | None) -> "Name":
        """Build a name from keyword arguments.

        Recognized keys: common_name, organization, organizational_unit,
        country, state, locality, email, user_id, given_name, surname,
        serial_number. ``None`` values are skipped.
        """
        key_to_oid = {
            "common_name": OID.COMMON_NAME,
            "organization": OID.ORGANIZATION,
            "organizational_unit": OID.ORGANIZATIONAL_UNIT,
            "country": OID.COUNTRY,
            "state": OID.STATE_OR_PROVINCE,
            "locality": OID.LOCALITY,
            "email": OID.EMAIL_ADDRESS,
            "user_id": OID.USER_ID,
            "given_name": OID.GIVEN_NAME,
            "surname": OID.SURNAME,
            "serial_number": OID.SERIAL_NUMBER_ATTR,
        }
        rdns = []
        for key, value in kwargs.items():
            if key not in key_to_oid:
                raise NameError_(f"unknown name component: {key!r}")
            if value is None:
                continue
            attr = NameAttribute(key_to_oid[key], value)
            rdns.append(RelativeDistinguishedName((attr,)))
        return cls(rdns=tuple(rdns))

    @classmethod
    def empty(cls) -> "Name":
        return cls(rdns=())

    def to_der(self) -> bytes:
        return encode_sequence([rdn.to_der() for rdn in self.rdns])

    @classmethod
    def from_der(cls, data: bytes) -> "Name":
        return cls.from_tlv(read_single_tlv(data))

    @classmethod
    def from_tlv(cls, tlv: Tlv) -> "Name":
        rdns = tuple(
            RelativeDistinguishedName.from_tlv(member)
            for member in tlv.reader().read_all()
        )
        return cls(rdns=rdns)

    def __iter__(self) -> Iterator[NameAttribute]:
        for rdn in self.rdns:
            yield from rdn.attributes

    def get(self, oid: ObjectIdentifier) -> str | None:
        """First value of the given attribute type, or None."""
        for attr in self:
            if attr.oid == oid:
                return attr.value
        return None

    def get_all(self, oid: ObjectIdentifier) -> list[str]:
        return [attr.value for attr in self if attr.oid == oid]

    @property
    def common_name(self) -> str | None:
        return self.get(OID.COMMON_NAME)

    @property
    def organization(self) -> str | None:
        return self.get(OID.ORGANIZATION)

    @property
    def organizational_unit(self) -> str | None:
        return self.get(OID.ORGANIZATIONAL_UNIT)

    @property
    def country(self) -> str | None:
        return self.get(OID.COUNTRY)

    @property
    def is_empty(self) -> bool:
        return not self.rdns

    def rfc4514(self) -> str:
        """Render as an RFC 4514 string, most-specific attribute first."""
        return ",".join(
            "+".join(attr.rfc4514() for attr in rdn.attributes)
            for rdn in reversed(self.rdns)
        )

    def __str__(self) -> str:
        return self.rfc4514()


def name_from_attributes(attrs: Iterable[tuple[ObjectIdentifier, str]]) -> Name:
    """Build a Name with one single-attribute RDN per (oid, value) pair."""
    return Name(
        rdns=tuple(
            RelativeDistinguishedName((NameAttribute(oid, value),))
            for oid, value in attrs
        )
    )
