"""Certificates and certificate authorities (paper §6.3).

TLS authentication rests on certificates: each GDN host and each
moderator tool holds a certificate binding its principal name (and GDN
attributes, e.g. its roles) to a public key, signed by the GDN's
certificate authority.  Verifiers trust a set of root CAs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from .crypto import CryptoError, PublicKey, RsaKeyPair, sha256

__all__ = ["Certificate", "CertificateAuthority", "Credentials",
           "CertificateError"]


class CertificateError(Exception):
    """Raised when certificate validation fails."""


class Certificate:
    """A signed binding of subject -> public key (+ attributes)."""

    def __init__(self, subject: str, public_key: PublicKey, issuer: str,
                 attributes: Optional[Dict[str, str]] = None,
                 signature: int = 0):
        self.subject = subject
        self.public_key = public_key
        self.issuer = issuer
        self.attributes = dict(attributes or {})
        self.signature = signature

    def signable(self) -> bytes:
        fields = "|".join([
            self.subject, self.issuer,
            "%d:%d" % (self.public_key.n, self.public_key.e),
            ",".join("%s=%s" % (key, self.attributes[key])
                     for key in sorted(self.attributes)),
        ])
        return sha256(fields.encode("utf-8"))

    def to_wire(self) -> dict:
        return {
            "subject": self.subject,
            "issuer": self.issuer,
            "key": self.public_key.to_wire(),
            "attributes": dict(self.attributes),
            "signature": self.signature,
        }

    @classmethod
    def from_wire(cls, wire: Any) -> "Certificate":
        """Parse; a missing or mistyped field is a CertificateError."""
        try:
            cert = cls(wire["subject"], PublicKey.from_wire(wire["key"]),
                       wire["issuer"], wire.get("attributes"),
                       wire.get("signature", 0))
            if not (isinstance(cert.subject, str) and isinstance(
                    cert.issuer, str) and isinstance(cert.signature, int)):
                raise TypeError("a field of the wrong type")
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError("bad certificate: %r" % exc) from exc
        return cert

    def wire_size(self) -> int:
        """Approximate DER size; charged when certs cross the wire."""
        return 700 + sum(len(k) + len(v) for k, v in self.attributes.items())

    def __repr__(self) -> str:
        return "Certificate(%s by %s)" % (self.subject, self.issuer)


class CertificateAuthority:
    """Issues certificates; its self-signed root anchors trust."""

    def __init__(self, name: str, rng: random.Random, bits: int = 512):
        self.name = name
        self.keypair = RsaKeyPair.generate(rng, bits=bits)
        self.root_certificate = Certificate(
            name, self.keypair.public, name, {"ca": "true"})
        self.root_certificate.signature = self.keypair.sign(
            self.root_certificate.signable())
        self.issued: List[str] = []

    def issue(self, subject: str, public_key: PublicKey,
              attributes: Optional[Dict[str, str]] = None) -> Certificate:
        certificate = Certificate(subject, public_key, self.name, attributes)
        certificate.signature = self.keypair.sign(certificate.signable())
        self.issued.append(subject)
        return certificate

    def verify(self, certificate: Certificate) -> bool:
        """Check that this CA signed the certificate."""
        if certificate.issuer != self.name:
            return False
        return self.keypair.public.verify(certificate.signable(),
                                          certificate.signature)


def verify_against_roots(certificate: Certificate,
                         roots: List[Certificate]) -> bool:
    """Validate a certificate against trusted root certificates."""
    for root in roots:
        if certificate.issuer == root.subject and root.public_key.verify(
                certificate.signable(), certificate.signature):
            return True
    return False


class Credentials:
    """What one party brings to a TLS handshake."""

    def __init__(self, keypair: RsaKeyPair, certificate: Certificate,
                 trust_roots: List[Certificate]):
        self.keypair = keypair
        self.certificate = certificate
        self.trust_roots = list(trust_roots)

    @classmethod
    def issue_for(cls, subject: str, ca: CertificateAuthority,
                  rng: random.Random,
                  attributes: Optional[Dict[str, str]] = None,
                  bits: int = 512) -> "Credentials":
        """Generate a key pair and have ``ca`` certify it."""
        keypair = RsaKeyPair.generate(rng, bits=bits)
        certificate = ca.issue(subject, keypair.public, attributes)
        return cls(keypair, certificate, [ca.root_certificate])

    def trusts(self, certificate: Certificate) -> bool:
        return verify_against_roots(certificate, self.trust_roots)
