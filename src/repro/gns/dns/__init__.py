"""An in-simulator DNS: the substrate under the Globe Name Service (§5)."""

from .records import (DnsError, ResourceRecord, RRType, is_subdomain,
                      normalize_name, parent_name)
from .resolver import CachingResolver, ResolutionError, ResolutionResult
from .server import DNS_PORT, AuthoritativeServer
from .tsig import TsigKey, TsigKeyring, sign_message, verify_message
from .zone import Rcode, Zone, ZoneAnswer

__all__ = [
    "DnsError", "ResourceRecord", "RRType", "is_subdomain",
    "normalize_name", "parent_name",
    "CachingResolver", "ResolutionError", "ResolutionResult",
    "DNS_PORT", "AuthoritativeServer",
    "TsigKey", "TsigKeyring", "sign_message", "verify_message",
    "Rcode", "Zone", "ZoneAnswer",
]
