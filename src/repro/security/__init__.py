"""GDN security: crypto, certificates, TLS channels, roles (§6)."""

from .acl import GdnPolicy, PrincipalRegistry, Role, role_attribute
from .certs import (Certificate, CertificateAuthority, CertificateError,
                    Credentials)
from .crypto import (CryptoError, PublicKey, RsaKeyPair, generate_prime,
                     hmac_sha256, sha256)
from .tls import (HandshakeError, SecureChannel, SecurityError,
                  client_wrapper, server_factory)

__all__ = [
    "GdnPolicy", "PrincipalRegistry", "Role", "role_attribute",
    "Certificate", "CertificateAuthority", "CertificateError", "Credentials",
    "CryptoError", "PublicKey", "RsaKeyPair", "generate_prime",
    "hmac_sha256", "sha256",
    "HandshakeError", "SecureChannel", "SecurityError",
    "client_wrapper", "server_factory",
]
