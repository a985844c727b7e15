"""The Globe Name Service: object names -> object identifiers (§5)."""

from . import dns
from .authority import AUTHORITY_PORT, NamingAuthority
from .gns import (DEFAULT_GDN_ZONE, GlobeNameService, GnsError,
                  decode_oid_txt, encode_oid_txt, object_name_to_dns)

__all__ = [
    "dns", "AUTHORITY_PORT", "NamingAuthority",
    "DEFAULT_GDN_ZONE", "GlobeNameService", "GnsError",
    "decode_oid_txt", "encode_oid_txt",
    "object_name_to_dns",
]
