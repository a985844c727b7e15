"""Unit tests for the crypto primitives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security.crypto import (CryptoError, RsaKeyPair, generate_prime,
                                   hmac_sha256, sha256)


@pytest.fixture(scope="module")
def keypair():
    return RsaKeyPair.generate(random.Random(42), bits=512)


def test_prime_generation_deterministic():
    a = generate_prime(128, random.Random(7))
    b = generate_prime(128, random.Random(7))
    assert a == b
    assert a.bit_length() == 128
    assert a % 2 == 1


def test_prime_rejects_tiny():
    with pytest.raises(CryptoError):
        generate_prime(4, random.Random(1))


def test_sign_verify_round_trip(keypair):
    signature = keypair.sign(b"package contents")
    assert keypair.public.verify(b"package contents", signature)


def test_signature_fails_on_modified_data(keypair):
    signature = keypair.sign(b"original")
    assert not keypair.public.verify(b"tampered", signature)


def test_signature_fails_with_wrong_key(keypair):
    other = RsaKeyPair.generate(random.Random(43), bits=512)
    signature = keypair.sign(b"data")
    assert not other.public.verify(b"data", signature)


def test_encrypt_decrypt_round_trip(keypair):
    message = 0xDEADBEEF
    assert keypair.decrypt_int(keypair.public.encrypt_int(message)) == message


def test_encrypt_out_of_range_rejected(keypair):
    with pytest.raises(CryptoError):
        keypair.public.encrypt_int(keypair.public.n + 1)
    with pytest.raises(CryptoError):
        keypair.public.encrypt_int(keypair.public.n)


def test_public_key_wire_round_trip(keypair):
    from repro.security.crypto import PublicKey

    restored = PublicKey.from_wire(keypair.public.to_wire())
    assert restored == keypair.public
    assert keypair.public != keypair.public.to_wire()  # not a key


def test_hmac_and_sha_basics():
    assert sha256(b"a") != sha256(b"b")
    assert hmac_sha256(b"k1", b"m") != hmac_sha256(b"k2", b"m")
    assert hmac_sha256(b"k", b"m") == hmac_sha256(b"k", b"m")


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 255))
def test_rsa_round_trip_property(message):
    keypair = _shared_keypair()
    assert keypair.decrypt_int(keypair.public.encrypt_int(message)) == message


_cached_keypair = None


def _shared_keypair():
    global _cached_keypair
    if _cached_keypair is None:
        _cached_keypair = RsaKeyPair.generate(random.Random(99), bits=512)
    return _cached_keypair


def test_the_smallest_prime_generated_has_8_bits():
    prime = generate_prime(8, random.Random(3))
    assert prime.bit_length() == 8
    with pytest.raises(CryptoError):
        generate_prime(7, random.Random(3))


def test_the_primality_test_on_small_numbers_and_a_carmichael_number():
    from repro.security.crypto import _is_probable_prime

    rng = random.Random(1)
    assert [n for n in range(20) if _is_probable_prime(n, rng)] \
        == [2, 3, 5, 7, 11, 13, 17, 19]
    # 53 * 79 * 599 passes Fermat's test to every coprime base, and
    # this stream's 24 bases are all coprime to it.
    assert not _is_probable_prime(2_508_013, random.Random(4))
    assert _is_probable_prime(1_000_000_009, rng)  # 1 mod 4


def test_a_key_pair_skips_twin_primes_and_a_phi_e_divides(monkeypatch):
    from repro.security import crypto

    # 917519 - 1 is a multiple of e = 65537, so phi is too.
    primes = iter([1_000_003, 1_000_003, 917_519, 1_000_033,
                   1_000_037, 1_000_039])
    monkeypatch.setattr(crypto, "generate_prime",
                        lambda bits, rng: next(primes))
    keypair = RsaKeyPair.generate(random.Random(1))
    assert keypair.public.n == 1_000_037 * 1_000_039
    assert keypair.decrypt_int(keypair.public.encrypt_int(42)) == 42
