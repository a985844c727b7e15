"""Object identifiers and contact addresses (paper §3.4).

Every distributed shared object is identified by a *worldwide unique,
location-independent* object identifier (OID) that never changes during
the object's lifetime.  Where the object currently lives — and how to
talk to it — is described by *contact addresses* stored in the Globe
Location Service; the pair (OID, contact-address set) is the object's
replication scenario made concrete.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

__all__ = ["ObjectId", "ContactAddress", "IdError"]

_OID_BYTES = 20  # 160 bits, as in the paper's "long strings of bits"


class IdError(Exception):
    """Raised for malformed identifiers or addresses."""


class ObjectId:
    """A 160-bit location-independent object identifier.

    Immutable and hashable; renders as hex.  OIDs travel on the wire in
    their hex form (``oid.hex``) and are reconstructed with
    :meth:`from_hex`.
    """

    __slots__ = ("_data",)

    def __init__(self, data: bytes):
        if not isinstance(data, bytes) or len(data) != _OID_BYTES:
            raise IdError("an OID is exactly %d bytes" % _OID_BYTES)
        self._data = data

    @classmethod
    def generate(cls, rng: Optional[random.Random] = None) -> "ObjectId":
        """A fresh random OID (from ``rng`` for determinism)."""
        rng = rng or random
        return cls(bytes(rng.getrandbits(8) for _ in range(_OID_BYTES)))

    @classmethod
    def from_seed(cls, seed: str) -> "ObjectId":
        """A deterministic OID derived from a string (tests, fixtures)."""
        return cls(hashlib.sha1(seed.encode("utf-8")).digest())

    @classmethod
    def from_hex(cls, text: str) -> "ObjectId":
        try:
            data = bytes.fromhex(text)
        except ValueError as exc:
            raise IdError("bad OID hex: %r" % text) from exc
        return cls(data)

    @property
    def hex(self) -> str:
        return self._data.hex()

    def shard(self, buckets: int) -> int:
        """Stable hash partition in ``range(buckets)``.

        Used by GLS directory-node partitioning (§3.5): subnodes divide
        the OID space "via a special hashing technique".
        """
        if buckets < 1:
            raise IdError("buckets must be >= 1")
        digest = hashlib.sha256(self._data).digest()
        return int.from_bytes(digest[:8], "big") % buckets

    def __eq__(self, other) -> bool:
        return isinstance(other, ObjectId) and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return "ObjectId(%s...)" % self.hex[:12]

    def wire_size(self) -> int:
        return _OID_BYTES


class ContactAddress:
    """Where and how a local representative can be contacted (§3.4).

    ``protocol`` names the replication protocol (so the binder knows
    which client subobjects to load from the implementation
    repository), ``role`` distinguishes e.g. master from slave replicas
    within that protocol, and ``impl_id`` names the implementation to
    load.
    """

    __slots__ = ("host_name", "port", "protocol", "role", "impl_id",
                 "site_path")

    def __init__(self, host_name: str, port: int, protocol: str,
                 role: str = "replica", impl_id: str = "",
                 site_path: str = ""):
        self.host_name = host_name
        self.port = int(port)
        self.protocol = protocol
        self.role = role
        self.impl_id = impl_id or ("%s/client" % protocol)
        self.site_path = site_path

    def to_wire(self) -> dict:
        return {
            "host": self.host_name,
            "port": self.port,
            "protocol": self.protocol,
            "role": self.role,
            "impl": self.impl_id,
            "site": self.site_path,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "ContactAddress":
        try:
            return cls(data["host"], data["port"], data["protocol"],
                       data.get("role", "replica"), data.get("impl", ""),
                       data.get("site", ""))
        except KeyError as exc:
            raise IdError("bad contact address: missing %s" % exc) from exc

    def key(self) -> tuple:
        """Identity for dedup/removal: one CA per (host, port, role)."""
        return (self.host_name, self.port, self.role)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ContactAddress)
                and self.to_wire() == other.to_wire())

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return ("ContactAddress(%s:%d, %s/%s)"
                % (self.host_name, self.port, self.protocol, self.role))
