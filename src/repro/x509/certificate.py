"""Certificate and TBSCertificate with full DER round-trip."""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro.asn1 import (
    ObjectIdentifier,
    OID,
    encode_bit_string,
    encode_explicit,
    encode_integer,
    encode_null,
    encode_oid,
    encode_sequence,
    read_single_tlv,
)
from repro.asn1.decoder import (
    Tlv,
    decode_bit_string,
    decode_integer,
    decode_null,
    decode_oid,
    decode_time,
)
from repro.asn1.encoder import encode_x509_time
from repro.asn1.errors import DerDecodeError
from repro.asn1.tags import TagClass
from repro.x509.extensions import (
    BasicConstraints,
    ExtendedKeyUsage,
    Extension,
    KeyUsage,
    SubjectAlternativeName,
)
from repro.x509.keys import PublicKey, public_key_from_spki
from repro.x509.name import Name

#: X.509 versions are encoded as (version - 1): v1 = 0, v3 = 2.
VERSION_V1 = 1
VERSION_V3 = 3


@dataclass(frozen=True)
class AlgorithmIdentifier:
    """AlgorithmIdentifier ::= SEQUENCE { algorithm OID, parameters ANY }."""

    oid: ObjectIdentifier
    has_null_parameters: bool = True

    def to_der(self) -> bytes:
        members = [encode_oid(self.oid)]
        if self.has_null_parameters:
            members.append(encode_null())
        return encode_sequence(members)

    @classmethod
    def from_tlv(cls, tlv: Tlv) -> "AlgorithmIdentifier":
        reader = tlv.reader()
        oid = decode_oid(reader.read_tlv())
        has_null = False
        if not reader.at_end():
            decode_null(reader.read_tlv())
            has_null = True
        reader.finish()
        return cls(oid=oid, has_null_parameters=has_null)


@dataclass(frozen=True)
class Validity:
    """Validity ::= SEQUENCE { notBefore Time, notAfter Time }.

    The model intentionally does NOT enforce notBefore <= notAfter:
    the paper documents real certificates with inverted dates (Figure 3,
    Tables 11-12) and the whole point is to carry them through the
    pipeline and detect them downstream.
    """

    not_before: _dt.datetime
    not_after: _dt.datetime

    def __post_init__(self) -> None:
        for label, value in (("not_before", self.not_before), ("not_after", self.not_after)):
            if value.tzinfo is None:
                object.__setattr__(self, label, value.replace(tzinfo=_dt.timezone.utc))

    def to_der(self) -> bytes:
        return encode_sequence(
            [encode_x509_time(self.not_before), encode_x509_time(self.not_after)]
        )

    @classmethod
    def from_tlv(cls, tlv: Tlv) -> "Validity":
        reader = tlv.reader()
        not_before = decode_time(reader.read_tlv())
        not_after = decode_time(reader.read_tlv())
        reader.finish()
        return cls(not_before=not_before, not_after=not_after)

    @property
    def is_inverted(self) -> bool:
        """True when notBefore is after notAfter (a misconfiguration)."""
        return self.not_before > self.not_after

    @property
    def period_days(self) -> float:
        """Signed validity period in days (negative when inverted)."""
        return (self.not_after - self.not_before).total_seconds() / 86400.0

    def contains(self, instant: _dt.datetime) -> bool:
        if instant.tzinfo is None:
            instant = instant.replace(tzinfo=_dt.timezone.utc)
        return self.not_before <= instant <= self.not_after


@dataclass(frozen=True)
class TbsCertificate:
    """The to-be-signed portion of a certificate."""

    version: int
    serial_number: int
    signature_algorithm: AlgorithmIdentifier
    issuer: Name
    validity: Validity
    subject: Name
    spki_der: bytes
    extensions: tuple[Extension, ...] = ()

    def to_der(self) -> bytes:
        members = []
        if self.version != VERSION_V1:
            members.append(encode_explicit(0, encode_integer(self.version - 1)))
        members.append(encode_integer(self.serial_number))
        members.append(self.signature_algorithm.to_der())
        members.append(self.issuer.to_der())
        members.append(self.validity.to_der())
        members.append(self.subject.to_der())
        members.append(self.spki_der)
        if self.extensions:
            ext_seq = encode_sequence([ext.to_der() for ext in self.extensions])
            members.append(encode_explicit(3, ext_seq))
        return encode_sequence(members)

    @classmethod
    def from_tlv(cls, tlv: Tlv) -> "TbsCertificate":
        reader = tlv.reader()
        version = VERSION_V1
        first = reader.peek_tag()
        if first.tag_class is TagClass.CONTEXT and first.number == 0:
            version_reader = reader.read_tlv().reader()
            version = decode_integer(version_reader.read_tlv()) + 1
            version_reader.finish()
        serial = decode_integer(reader.read_tlv())
        algorithm = AlgorithmIdentifier.from_tlv(reader.read_tlv())
        issuer = Name.from_tlv(reader.read_tlv())
        validity = Validity.from_tlv(reader.read_tlv())
        subject = Name.from_tlv(reader.read_tlv())
        spki_der = reader.read_tlv().raw
        extensions: tuple[Extension, ...] = ()
        if not reader.at_end():
            ext_wrapper = reader.read_tlv()
            if ext_wrapper.tag.tag_class is TagClass.CONTEXT and ext_wrapper.tag.number == 3:
                ext_seq = ext_wrapper.reader().read_tlv()
                extensions = tuple(
                    Extension.from_tlv(member) for member in ext_seq.reader().read_all()
                )
            else:
                raise DerDecodeError(
                    f"unexpected trailing element in TBSCertificate: {ext_wrapper.tag!r}"
                )
        reader.finish()
        return cls(
            version=version,
            serial_number=serial,
            signature_algorithm=algorithm,
            issuer=issuer,
            validity=validity,
            subject=subject,
            spki_der=spki_der,
            extensions=extensions,
        )


@dataclass(frozen=True)
class Certificate:
    """A signed certificate: TBS + signature algorithm + signature bits."""

    tbs: TbsCertificate
    signature_algorithm: AlgorithmIdentifier
    signature: bytes

    @cached_property
    def _der(self) -> bytes:
        return encode_sequence(
            [
                self.tbs.to_der(),
                self.signature_algorithm.to_der(),
                encode_bit_string(self.signature),
            ]
        )

    def to_der(self) -> bytes:
        return self._der

    @classmethod
    def from_der(cls, data: bytes) -> "Certificate":
        outer = read_single_tlv(data)
        reader = outer.reader()
        tbs_tlv = reader.read_tlv()
        tbs = TbsCertificate.from_tlv(tbs_tlv)
        algorithm = AlgorithmIdentifier.from_tlv(reader.read_tlv())
        signature, unused = decode_bit_string(reader.read_tlv())
        if unused:
            raise DerDecodeError("signature BIT STRING has unused bits")
        reader.finish()
        return cls(tbs=tbs, signature_algorithm=algorithm, signature=signature)

    # Convenience accessors ----------------------------------------------------

    @property
    def version(self) -> int:
        return self.tbs.version

    @property
    def serial_number(self) -> int:
        return self.tbs.serial_number

    @property
    def serial_hex(self) -> str:
        """Serial as an even-length uppercase hex string (Zeek style)."""
        value = self.tbs.serial_number
        if value < 0:
            # Negative serials exist in the wild; render two's complement-ish.
            value &= (1 << (8 * ((value.bit_length() // 8) + 1))) - 1
        text = f"{value:X}"
        return "0" + text if len(text) % 2 else text

    @property
    def issuer(self) -> Name:
        return self.tbs.issuer

    @property
    def subject(self) -> Name:
        return self.tbs.subject

    @property
    def not_valid_before(self) -> _dt.datetime:
        return self.tbs.validity.not_before

    @property
    def not_valid_after(self) -> _dt.datetime:
        return self.tbs.validity.not_after

    @property
    def validity(self) -> Validity:
        return self.tbs.validity

    @cached_property
    def public_key(self) -> PublicKey:
        return public_key_from_spki(self.tbs.spki_der)

    @property
    def key_bits(self) -> int:
        return self.public_key.bit_length

    @cached_property
    def _sha256_hex(self) -> str:
        return hashlib.sha256(self.to_der()).hexdigest()

    def fingerprint(self, algorithm: str = "sha256") -> str:
        if algorithm == "sha256":
            return self._sha256_hex
        return hashlib.new(algorithm, self.to_der()).hexdigest()

    def extension(self, oid: ObjectIdentifier) -> Extension | None:
        for ext in self.tbs.extensions:
            if ext.oid == oid:
                return ext
        return None

    @cached_property
    def subject_alternative_name(self) -> SubjectAlternativeName:
        ext = self.extension(OID.SUBJECT_ALT_NAME)
        if ext is None:
            return SubjectAlternativeName(())
        return SubjectAlternativeName.from_der(ext.value)

    @property
    def basic_constraints(self) -> BasicConstraints | None:
        ext = self.extension(OID.BASIC_CONSTRAINTS)
        if ext is None:
            return None
        return BasicConstraints.from_der(ext.value)

    @property
    def extended_key_usage(self) -> ExtendedKeyUsage | None:
        ext = self.extension(OID.EXTENDED_KEY_USAGE)
        if ext is None:
            return None
        return ExtendedKeyUsage.from_der(ext.value)

    @property
    def key_usage(self) -> KeyUsage | None:
        ext = self.extension(OID.KEY_USAGE)
        if ext is None:
            return None
        return KeyUsage.from_der(ext.value)

    @property
    def is_ca(self) -> bool:
        constraints = self.basic_constraints
        return bool(constraints and constraints.ca)

    @property
    def is_self_issued(self) -> bool:
        """Issuer DN equals subject DN (necessary for self-signed)."""
        return self.tbs.issuer.to_der() == self.tbs.subject.to_der()

    def expired_at(self, instant: _dt.datetime) -> bool:
        if instant.tzinfo is None:
            instant = instant.replace(tzinfo=_dt.timezone.utc)
        return instant > self.tbs.validity.not_after

    def days_expired(self, instant: _dt.datetime) -> float:
        """Days past notAfter at the given instant (negative if not expired)."""
        if instant.tzinfo is None:
            instant = instant.replace(tzinfo=_dt.timezone.utc)
        return (instant - self.tbs.validity.not_after).total_seconds() / 86400.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Certificate(subject={self.subject.rfc4514()!r}, "
            f"issuer={self.issuer.rfc4514()!r}, serial={self.serial_hex})"
        )
