"""The Globe Name Service on DNS (paper §5).

Globe object names are human-readable, hierarchical and location
independent; the GNS maps them to object identifiers, which the GLS
then maps to contact addresses (the two-level naming scheme).  The
prototype reproduced here follows the paper exactly:

* a Globe object name has a one-to-one mapping to a DNS name
  (``/nl/vu/cs/globe/somePackage`` ↔ ``somepackage.globe.cs.vu.nl``);
* the GDN hides the DNS domain from users by registering all package
  names under one leaf domain, the **GDN Zone**: the user-visible name
  ``/apps/graphics/Gimp`` becomes ``gimp.graphics.apps.<gdn-zone>``;
* the object identifier is stored in a TXT record at that name.
"""

from __future__ import annotations

import functools
from typing import Generator

from .dns.records import NAME_MEMO_SIZE, DnsError, normalize_name
from .dns.resolver import CachingResolver, ResolutionError

__all__ = ["GlobeNameService", "GnsError", "object_name_to_dns",
           "encode_oid_txt", "decode_oid_txt", "DEFAULT_GDN_ZONE"]

#: The DNS leaf domain holding all GDN package names (§5 "GDN Zone").
DEFAULT_GDN_ZONE = "gdn.cs.vu.nl"

_TXT_PREFIX = "globe-oid="


class GnsError(Exception):
    """Raised for name-service failures (bad names, missing mappings)."""


@functools.lru_cache(maxsize=NAME_MEMO_SIZE)
def object_name_to_dns(object_name: str, zone: str) -> str:
    """Map a Globe object name to its DNS name in ``zone``.

    Path components are reversed and joined with dots, then suffixed
    with the zone — exactly the paper's scheme.  DNS syntax limits
    apply (the paper's first noted disadvantage): components must be
    valid DNS labels.  Memoised like :func:`normalize_name`: a popular
    package's name is mapped once, not once per request.
    """
    if not object_name.startswith("/"):
        raise GnsError("object names are absolute paths: %r" % object_name)
    components = [part for part in object_name.split("/") if part]
    if not components:
        raise GnsError("empty object name")
    dns_name = ".".join(reversed([part.lower() for part in components]))
    try:
        return normalize_name("%s.%s" % (dns_name, zone))
    except DnsError as exc:
        raise GnsError("object name %r does not fit DNS syntax: %s"
                       % (object_name, exc)) from exc


def encode_oid_txt(oid_hex: str) -> str:
    """TXT record payload carrying an encoded object identifier."""
    return _TXT_PREFIX + oid_hex


def decode_oid_txt(data: str) -> str:
    if not data.startswith(_TXT_PREFIX):
        raise GnsError("not a Globe OID TXT record: %r" % data)
    return data[len(_TXT_PREFIX):]


class GlobeNameService:
    """Client-side GNS: resolve object names to object identifiers."""

    def __init__(self, resolver: CachingResolver,
                 zone: str = DEFAULT_GDN_ZONE):
        self.resolver = resolver
        self.zone = normalize_name(zone)
        self.resolutions = 0

    def to_dns_name(self, object_name: str) -> str:
        return object_name_to_dns(object_name, self.zone)

    def resolve(self, object_name: str) -> Generator[object, object, str]:
        """Resolve an object name to an OID (hex).

        ``oid_hex = yield from gns.resolve("/apps/graphics/Gimp")``
        """
        dns_name = self.to_dns_name(object_name)
        self.resolutions += 1
        try:
            data = yield from self.resolver.resolve_txt(dns_name)
        except ResolutionError as exc:
            raise GnsError("cannot resolve %r: %s"
                           % (object_name, exc)) from exc
        return decode_oid_txt(data)
