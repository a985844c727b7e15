"""Unit tests for certificates and certificate authorities."""

import random

import pytest

from repro.security.acl import Role, role_attribute
from repro.security.certs import (Certificate, CertificateAuthority,
                                  CertificateError, Credentials,
                                  verify_against_roots)
from repro.security.crypto import RsaKeyPair


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority("gdn-ca", random.Random(1))


def signed_by(ca, certificate):
    return verify_against_roots(certificate, [ca.root_certificate])


def test_ca_root_is_self_verifying(ca):
    assert signed_by(ca, ca.root_certificate)


def test_issue_and_verify(ca):
    subject_keys = RsaKeyPair.generate(random.Random(2), bits=512)
    certificate = ca.issue("gos-1", subject_keys.public,
                           role_attribute(Role.GDN_HOST))
    assert signed_by(ca, certificate)
    assert certificate.subject == "gos-1"
    assert certificate.attributes == role_attribute(Role.GDN_HOST)


def test_forged_certificate_rejected(ca):
    subject_keys = RsaKeyPair.generate(random.Random(3), bits=512)
    forged = Certificate("admin", subject_keys.public, ca.name,
                         role_attribute(Role.ADMIN), signature=12345)
    assert not signed_by(ca, forged)


def test_attribute_tampering_invalidates_signature(ca):
    subject_keys = RsaKeyPair.generate(random.Random(4), bits=512)
    certificate = ca.issue("mod-1", subject_keys.public,
                           role_attribute(Role.MODERATOR))
    certificate.attributes["gdn-role"] = Role.ADMIN.value
    assert not signed_by(ca, certificate)


def test_wire_round_trip(ca):
    subject_keys = RsaKeyPair.generate(random.Random(5), bits=512)
    certificate = ca.issue("host-1", subject_keys.public)
    restored = Certificate.from_wire(certificate.to_wire())
    assert signed_by(ca, restored)
    assert restored.wire_size() >= 700
    with pytest.raises(CertificateError):
        Certificate.from_wire({"subject": "x"})
    # Each field of the wrong type is refused on its own.
    for field, wrong in (("subject", 1), ("issuer", 1), ("signature", "1")):
        with pytest.raises(CertificateError, match="wrong type"):
            Certificate.from_wire(dict(certificate.to_wire(),
                                       **{field: wrong}))


def test_credentials_trust(ca):
    alice = Credentials.issue_for("alice", ca, random.Random(6))
    bob = Credentials.issue_for("bob", ca, random.Random(7))
    assert alice.trusts(bob.certificate)
    other_ca = CertificateAuthority("rogue-ca", random.Random(8))
    mallory = Credentials.issue_for("mallory", other_ca, random.Random(9))
    assert not alice.trusts(mallory.certificate)



def test_a_package_grant_makes_a_maintainer_of_that_package_only():
    from repro.security.acl import PrincipalRegistry

    registry = PrincipalRegistry()
    registry.grant_package("alice", "ab" * 20)
    assert registry.has_role("alice", Role.MAINTAINER)
    assert registry.maintains("alice", "ab" * 20)
    assert not registry.maintains("alice", "cd" * 20)
    assert not registry.maintains(None, "ab" * 20)
    assert registry.roles_of(None) == set()
