"""DNS resource records and name utilities.

The paper's prototype Globe Name Service runs on BIND8 and stores
Globe object identifiers in TXT records (§5).  This module provides
the data model for our in-simulator DNS: domain names (normalised,
dot-separated, lower-case, no trailing dot), record types, and
resource records with TTLs.
"""

from __future__ import annotations

import enum
import functools
from typing import List, Tuple

__all__ = ["RRType", "ResourceRecord", "normalize_name", "is_subdomain",
           "name_labels", "parent_name", "DnsError", "NAME_MEMO_SIZE"]

#: Entries in the name memos (:func:`normalize_name` here, the object
#: name mapping in ``gns.gns``).  Names are pure functions of their
#: spelling, so a memo entry is never wrong, only evicted (LRU); the
#: bound keeps a run over an unbounded name space at a fixed footprint
#: (two strings per entry, a few hundred KiB when full).
NAME_MEMO_SIZE = 4096


class DnsError(Exception):
    """Raised for malformed names, records or protocol violations."""


class RRType(str, enum.Enum):
    """The record types this substrate supports."""

    A = "A"          # host address (host name in the simulated world)
    NS = "NS"        # delegation to a name-server host
    TXT = "TXT"      # free text — carries encoded Globe OIDs (§5)
    SOA = "SOA"      # zone authority metadata
    CNAME = "CNAME"  # alias


@functools.lru_cache(maxsize=NAME_MEMO_SIZE)
def normalize_name(name: str) -> str:
    """Canonical form: lower-case, no surrounding dots, no empties.

    The root is the empty string.  Memoised: every layer of the name
    service normalises defensively, so one warm resolution passes the
    same spelling through here several times; it is validated once.
    (A name that fails is not remembered and fails again next time.)
    """
    name = name.strip().lower().strip(".")
    if not name:
        return ""
    for label in name.split("."):
        if not label or len(label) > 63:
            raise DnsError("bad DNS label in %r" % name)
        # Paper §5: DNS restricts name syntax; enforce it here
        # (letters, digits and hyphens only).
        plain = label.replace("-", "")
        if plain and not plain.isalnum():
            raise DnsError("illegal character in DNS label %r" % label)
    if len(name) > 253:
        raise DnsError("DNS name too long: %r" % name)
    return name


def name_labels(name: str) -> List[str]:
    return name.split(".") if name else []


def is_subdomain(name: str, ancestor: str) -> bool:
    """True if ``name`` equals or falls under ``ancestor``."""
    if ancestor == "":
        return True
    return name == ancestor or name.endswith("." + ancestor)


def parent_name(name: str) -> str:
    if not name:
        raise DnsError("the root has no parent")
    _first, _dot, rest = name.partition(".")
    return rest


class ResourceRecord:
    """One DNS resource record."""

    __slots__ = ("name", "rtype", "ttl", "data")

    def __init__(self, name: str, rtype: RRType, ttl: int, data: str):
        self.name = normalize_name(name)
        self.rtype = RRType(rtype)
        if ttl < 0:
            raise DnsError("negative TTL")
        self.ttl = int(ttl)
        self.data = str(data)

    def key(self) -> Tuple[str, str]:
        return (self.name, self.rtype.value)

    def to_wire(self) -> dict:
        return {"name": self.name, "type": self.rtype.value,
                "ttl": self.ttl, "data": self.data}

    @classmethod
    def from_wire(cls, wire: dict) -> "ResourceRecord":
        try:
            return cls(wire["name"], wire["type"], wire["ttl"],
                       wire["data"])
        except KeyError as exc:
            raise DnsError("bad record wire form: missing %s" % exc) from exc

    def __eq__(self, other) -> bool:
        return (isinstance(other, ResourceRecord)
                and self.to_wire() == other.to_wire())

    def __hash__(self) -> int:
        return hash((self.name, self.rtype, self.ttl, self.data))

    def __repr__(self) -> str:
        return ("RR(%s %s %ds %r)"
                % (self.name or ".", self.rtype.value, self.ttl, self.data))
