"""Cryptographic primitives for the GDN security layer (paper §6).

Real mathematics, simulation-grade parameters: RSA with Miller–Rabin
prime generation (default 512-bit moduli — fast to generate in pure
Python and obviously not secure against 2026 adversaries, but the
protocol logic is exactly the real thing), SHA-256 digests, and HMAC.

All key generation is driven by explicit ``random.Random`` instances so
worlds remain deterministic.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random

__all__ = ["RsaKeyPair", "PublicKey", "sha256", "hmac_sha256",
           "generate_prime", "CryptoError"]


class CryptoError(Exception):
    """Raised for cryptographic failures (bad signatures, sizes)."""


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    return _hmac.new(key, data, hashlib.sha256).digest()


# -- prime generation ----------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    """Miller–Rabin probabilistic primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """A random prime of exactly ``bits`` bits."""
    if bits < 8:
        raise CryptoError("prime too small to be useful")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


# -- RSA -------------------------------------------------------------------------


class PublicKey:
    """An RSA public key (n, e)."""

    __slots__ = ("n", "e")

    def __init__(self, n: int, e: int):
        self.n = n
        self.e = e

    def to_wire(self) -> dict:
        return {"n": self.n, "e": self.e}

    @classmethod
    def from_wire(cls, wire: dict) -> "PublicKey":
        return cls(int(wire["n"]), int(wire["e"]))

    def verify(self, data: bytes, signature: int) -> bool:
        """Check an RSASSA-style signature over sha256(data)."""
        digest = int.from_bytes(sha256(data), "big") % self.n
        return pow(signature, self.e, self.n) == digest

    def encrypt_int(self, message: int) -> int:
        """Raw RSA encryption of a small integer (key transport)."""
        if not 0 <= message < self.n:
            raise CryptoError("message out of range for this key")
        return pow(message, self.e, self.n)

    def fingerprint(self) -> str:
        return sha256(("%d:%d" % (self.n, self.e)).encode()).hex()[:16]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PublicKey)
                and (self.n, self.e) == (other.n, other.e))

    def __hash__(self) -> int:
        return hash((self.n, self.e))


class RsaKeyPair:
    """An RSA key pair with textbook sign/decrypt operations."""

    def __init__(self, n: int, e: int, d: int):
        self.public = PublicKey(n, e)
        self._d = d

    @classmethod
    def generate(cls, rng: random.Random, bits: int = 512) -> "RsaKeyPair":
        """Generate a fresh key pair (deterministic per ``rng``)."""
        e = 65537
        while True:
            p = generate_prime(bits // 2, rng)
            q = generate_prime(bits // 2, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            if phi % e == 0:
                continue
            d = pow(e, -1, phi)  # phi % e != 0 and e is prime: invertible
            return cls(n, e, d)

    def sign(self, data: bytes) -> int:
        """RSASSA-style signature over sha256(data)."""
        digest = int.from_bytes(sha256(data), "big") % self.public.n
        return pow(digest, self._d, self.public.n)

    def decrypt_int(self, ciphertext: int) -> int:
        """Raw RSA decryption (key transport)."""
        return pow(ciphertext, self._d, self.public.n)
