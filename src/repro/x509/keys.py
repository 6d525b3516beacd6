"""Key pairs and signature schemes.

Two families are provided behind a common interface:

- :class:`RsaPrivateKey` / :class:`RsaPublicKey` — real RSA over Python
  integers: Miller–Rabin key generation and PKCS#1 v1.5 signatures with a
  SHA-256 (or SHA-1) DigestInfo, exactly as found in certificates on the
  wire. Used where cryptographic fidelity matters (small key sizes keep
  tests fast).

- :class:`SimPrivateKey` / :class:`SimPublicKey` — a deterministic
  simulation scheme for bulk certificate minting: the "signature" is an
  HMAC-like SHA-256 tag over the message and the key's public modulus, so
  it is cheap to produce, cheap to verify with only the public half, and
  structurally occupies the same slots in a certificate. It provides **no
  security**; it exists so the traffic simulator can mint millions of
  verifiable certificates quickly.

The :class:`KeyFactory` hands out keys of either family with optional
caching so one run does not regenerate primes for every certificate.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Protocol

from repro.asn1 import (
    OID,
    encode_bit_string,
    encode_integer,
    encode_null,
    encode_oid,
    encode_sequence,
    read_single_tlv,
)
from repro.asn1.decoder import decode_bit_string, decode_integer
from repro.asn1.oid import ObjectIdentifier as _ObjectIdentifier
from repro.x509.errors import InvalidSignatureError, KeyError_

# DigestInfo prefixes for PKCS#1 v1.5 (RFC 8017 section 9.2).
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")
_SHA1_PREFIX = bytes.fromhex("3021300906052b0e03021a05000414")

_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
)


class PublicKey(Protocol):
    """Common interface for public keys embedded in certificates."""

    @property
    def bit_length(self) -> int: ...

    @property
    def algorithm_oid(self) -> "OID": ...

    def to_spki_der(self) -> bytes:
        """Encode as a SubjectPublicKeyInfo SEQUENCE."""
        ...

    def verify(self, message: bytes, signature: bytes, digest: str = "sha256") -> None:
        """Raise InvalidSignatureError if the signature does not verify."""
        ...

    def fingerprint(self) -> bytes:
        """SHA-256 over the SPKI encoding (used for SKI/AKI)."""
        ...


class PrivateKey(Protocol):
    """Common interface for signing keys."""

    @property
    def public_key(self) -> PublicKey: ...

    def sign(self, message: bytes, digest: str = "sha256") -> bytes: ...


def _digest(message: bytes, algorithm: str) -> bytes:
    if algorithm == "sha256":
        return hashlib.sha256(message).digest()
    if algorithm == "sha1":
        return hashlib.sha1(message).digest()
    raise KeyError_(f"unsupported digest algorithm: {algorithm!r}")


def _digest_info(message: bytes, algorithm: str) -> bytes:
    if algorithm == "sha256":
        return _SHA256_PREFIX + hashlib.sha256(message).digest()
    if algorithm == "sha1":
        return _SHA1_PREFIX + hashlib.sha1(message).digest()
    raise KeyError_(f"unsupported digest algorithm: {algorithm!r}")


# ---------------------------------------------------------------------------
# Real RSA
# ---------------------------------------------------------------------------


def _is_probable_prime(candidate: int, rng: random.Random, rounds: int = 20) -> bool:
    """Miller–Rabin primality test."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        witness = rng.randrange(2, candidate - 1)
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a probable prime with the top two bits set."""
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key (n, e)."""

    modulus: int
    exponent: int

    @property
    def bit_length(self) -> int:
        return self.modulus.bit_length()

    @property
    def algorithm_oid(self):
        return OID.RSA_ENCRYPTION

    def to_spki_der(self) -> bytes:
        rsa_key = encode_sequence(
            [encode_integer(self.modulus), encode_integer(self.exponent)]
        )
        algorithm = encode_sequence([encode_oid(OID.RSA_ENCRYPTION), encode_null()])
        return encode_sequence([algorithm, encode_bit_string(rsa_key)])

    @classmethod
    def from_spki_der(cls, data: bytes) -> "RsaPublicKey":
        spki = read_single_tlv(data).reader()
        spki.read_tlv()  # AlgorithmIdentifier; callers check the OID separately
        key_bits, _ = decode_bit_string(spki.read_tlv())
        spki.finish()
        key = read_single_tlv(key_bits).reader()
        modulus = decode_integer(key.read_tlv())
        exponent = decode_integer(key.read_tlv())
        key.finish()
        return cls(modulus=modulus, exponent=exponent)

    def verify(self, message: bytes, signature: bytes, digest: str = "sha256") -> None:
        key_bytes = (self.bit_length + 7) // 8
        if len(signature) != key_bytes:
            raise InvalidSignatureError("signature length does not match key size")
        decrypted = pow(int.from_bytes(signature, "big"), self.exponent, self.modulus)
        padded = decrypted.to_bytes(key_bytes, "big")
        expected = _pkcs1_pad(_digest_info(message, digest), key_bytes)
        if padded != expected:
            raise InvalidSignatureError("RSA PKCS#1 v1.5 signature mismatch")

    def fingerprint(self) -> bytes:
        return hashlib.sha256(self.to_spki_der()).digest()


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key (n, e, d)."""

    modulus: int
    public_exponent: int
    private_exponent: int

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.modulus, self.public_exponent)

    def sign(self, message: bytes, digest: str = "sha256") -> bytes:
        key_bytes = (self.modulus.bit_length() + 7) // 8
        padded = _pkcs1_pad(_digest_info(message, digest), key_bytes)
        value = pow(int.from_bytes(padded, "big"), self.private_exponent, self.modulus)
        return value.to_bytes(key_bytes, "big")


def _pkcs1_pad(digest_info: bytes, key_bytes: int) -> bytes:
    """EMSA-PKCS1-v1_5 padding: 0x00 0x01 FF..FF 0x00 DigestInfo."""
    pad_len = key_bytes - len(digest_info) - 3
    if pad_len < 8:
        raise KeyError_("key too small for digest")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + digest_info


def generate_rsa_key(
    bits: int = 512, seed: int | None = None, public_exponent: int = 65537
) -> RsaPrivateKey:
    """Generate an RSA key pair.

    Args:
        bits: modulus size; 512 keeps tests fast, 1024/2048 for realism.
        seed: deterministic generation when given.
        public_exponent: usually 65537.
    """
    if bits < 128:
        raise KeyError_("modulus must be at least 128 bits")
    rng = random.Random(seed)
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(public_exponent, -1, phi)
        except ValueError:
            continue
        return RsaPrivateKey(
            modulus=n, public_exponent=public_exponent, private_exponent=d
        )


# ---------------------------------------------------------------------------
# Simulation scheme
# ---------------------------------------------------------------------------

#: OID arc used to mark simulated keys inside SubjectPublicKeyInfo. A real
#: deployment would never see this; it keeps simulated and RSA keys
#: unambiguous when certificates are re-parsed.
SIM_KEY_OID = _ObjectIdentifier("1.3.6.1.4.1.99999.1")


@dataclass(frozen=True)
class SimPublicKey:
    """Public half of the simulation scheme.

    `key_id` plays the role of the modulus; `declared_bits` is the key size
    the certificate claims (so the analysis layer can flag weak 1024-bit
    keys without paying for real keygen).
    """

    key_id: bytes
    declared_bits: int = 2048

    @property
    def bit_length(self) -> int:
        return self.declared_bits

    @property
    def algorithm_oid(self):
        return SIM_KEY_OID

    def to_spki_der(self) -> bytes:
        algorithm = encode_sequence(
            [encode_oid(SIM_KEY_OID), encode_integer(self.declared_bits)]
        )
        return encode_sequence([algorithm, encode_bit_string(self.key_id)])

    @classmethod
    def from_spki_der(cls, data: bytes) -> "SimPublicKey":
        spki = read_single_tlv(data).reader()
        algorithm = spki.read_tlv().reader()
        algorithm.read_tlv()  # OID, checked by the caller
        declared_bits = decode_integer(algorithm.read_tlv())
        key_id, _ = decode_bit_string(spki.read_tlv())
        spki.finish()
        return cls(key_id=key_id, declared_bits=declared_bits)

    def verify(self, message: bytes, signature: bytes, digest: str = "sha256") -> None:
        expected = hashlib.sha256(self.key_id + _digest(message, digest)).digest()
        if signature != expected:
            raise InvalidSignatureError("simulated signature mismatch")

    def fingerprint(self) -> bytes:
        return hashlib.sha256(self.to_spki_der()).digest()


@dataclass(frozen=True)
class SimPrivateKey:
    """Private half of the simulation scheme (same key_id as the public)."""

    key_id: bytes
    declared_bits: int = 2048

    @property
    def public_key(self) -> SimPublicKey:
        return SimPublicKey(self.key_id, self.declared_bits)

    def sign(self, message: bytes, digest: str = "sha256") -> bytes:
        return hashlib.sha256(self.key_id + _digest(message, digest)).digest()


def public_key_from_spki(data: bytes) -> PublicKey:
    """Re-hydrate a public key of either family from SubjectPublicKeyInfo DER."""
    spki = read_single_tlv(data).reader()
    algorithm = spki.read_tlv().reader()
    from repro.asn1.decoder import decode_oid

    oid = decode_oid(algorithm.read_tlv())
    if oid == OID.RSA_ENCRYPTION:
        return RsaPublicKey.from_spki_der(data)
    if oid == SIM_KEY_OID:
        return SimPublicKey.from_spki_der(data)
    raise KeyError_(f"unsupported public key algorithm: {oid}")


class KeyFactory:
    """Hands out key pairs for certificate minting.

    Modes:
        ``sim``   — fast deterministic simulated keys (default).
        ``rsa``   — real RSA; generated keys are cached and reused across
                    calls with the same bit size to amortize prime search.
    """

    def __init__(self, mode: str = "sim", seed: int = 0) -> None:
        if mode not in ("sim", "rsa"):
            raise KeyError_(f"unknown key factory mode: {mode!r}")
        self.mode = mode
        self._rng = random.Random(seed)
        self._rsa_cache: dict[int, list[RsaPrivateKey]] = {}
        self._counter = 0

    def new_key(self, bits: int = 2048) -> PrivateKey:
        """Return a fresh private key claiming the given modulus size."""
        if self.mode == "sim":
            self._counter += 1
            key_id = hashlib.sha256(
                b"simkey:%d:%d" % (self._rng.getrandbits(64), self._counter)
            ).digest()[:16]
            return SimPrivateKey(key_id=key_id, declared_bits=bits)
        cache = self._rsa_cache.setdefault(bits, [])
        # Keep a small pool per size; certificates may legitimately share
        # keys in the simulated world (the paper observes exactly that).
        if len(cache) < 4:
            real_bits = min(bits, 512)  # cap actual size for speed
            key = generate_rsa_key(real_bits, seed=self._rng.getrandbits(64))
            cache.append(key)
            return key
        return self._rng.choice(cache)
