"""DNS zones: authoritative data plus delegation logic.

A zone owns all names at or under its origin except those it has
delegated away with NS records.  ``answer`` implements the
authoritative lookup algorithm the servers use: exact answer, CNAME
chain start, referral at a zone cut, NODATA, or NXDOMAIN.

Every change is journalled.  The mutators note each record they really
added or removed, in order; :meth:`Zone.bump_serial` seals what was
noted under the new serial.  A copy at serial ``s`` is brought up to
date by replaying the sealed change sets ``s + 1 ..`` in serial order
(:meth:`Zone.deltas_since`, :meth:`Zone.apply_delta` — RFC 1995 IXFR),
so replication costs what changed, not what the zone holds.  The
sealed change sets live in a :class:`~repro.core.journal.Journal`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.journal import JOURNAL_DEPTH, Journal
from .records import (DnsError, RRType, ResourceRecord, is_subdomain,
                      normalize_name, parent_name)

__all__ = ["Zone", "Rcode", "ZoneAnswer", "JOURNAL_DEPTH"]


class Rcode:
    """Response codes (the subset we need)."""

    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    REFUSED = "REFUSED"
    NOTAUTH = "NOTAUTH"
    BADSIG = "BADSIG"
    FORMERR = "FORMERR"
    NOTZONE = "NOTZONE"


class ZoneAnswer:
    """Result of an authoritative lookup inside one zone."""

    def __init__(self, rcode: str, answers: List[ResourceRecord],
                 referral: Optional[List[ResourceRecord]] = None,
                 authoritative: bool = True):
        self.rcode = rcode
        self.answers = answers
        #: NS records of a child zone when the name was delegated away.
        self.referral = referral or []
        self.authoritative = authoritative

    @property
    def is_referral(self) -> bool:
        return bool(self.referral)


class Zone:
    """Authoritative data for one DNS zone."""

    def __init__(self, origin: str, primary_host: str,
                 default_ttl: int = 300, serial: int = 1):
        self.origin = normalize_name(origin)
        self.primary_host = primary_host
        self.default_ttl = default_ttl
        self._records: Dict[Tuple[str, str], List[ResourceRecord]] = {}
        #: Owner name -> number of rrsets at it (NODATA vs NXDOMAIN).
        self._owners: Dict[str, int] = {}
        #: Changes since the last seal: (added?, record), in order.  A
        #: zone's initial contents wait here for its first commit;
        #: replaying them onto a copy that has them changes nothing.
        self._pending: List[Tuple[bool, ResourceRecord]] = []
        #: Sealed change sets in wire form, one per serial up to
        #: ``self.serial``.
        self._journal = Journal(serial)

    def __repr__(self) -> str:
        return "Zone(%r, serial=%d)" % (self.origin or ".", self.serial)

    @property
    def serial(self) -> int:
        return self._journal.version

    # -- record management ----------------------------------------------------

    def _check_in_zone(self, name: str) -> str:
        name = normalize_name(name)
        if not is_subdomain(name, self.origin):
            raise DnsError("%r is outside zone %r" % (name, self.origin))
        return name

    def _drop_rrset(self, key: Tuple[str, str]) -> None:
        del self._records[key]
        name = key[0]
        self._owners[name] -= 1
        if not self._owners[name]:
            del self._owners[name]

    def add_record(self, record: ResourceRecord) -> None:
        self._check_in_zone(record.name)
        key = record.key()
        rrset = self._records.get(key)
        if rrset is None:
            rrset = self._records[key] = []
            self._owners[record.name] = self._owners.get(record.name, 0) + 1
        elif record in rrset:
            return
        rrset.append(record)
        self._pending.append((True, record))

    def remove_rrset(self, name: str, rtype: RRType) -> bool:
        key = (self._check_in_zone(name), RRType(rtype).value)
        rrset = self._records.get(key)
        if rrset is None:
            return False
        self._drop_rrset(key)
        self._pending.extend((False, record) for record in rrset)
        return True

    def remove_record(self, record: ResourceRecord) -> bool:
        key = record.key()
        rrset = self._records.get(key)
        if not rrset or record not in rrset:
            return False
        rrset.remove(record)
        if not rrset:
            self._drop_rrset(key)
        self._pending.append((False, record))
        return True

    def rrset(self, name: str, rtype: RRType) -> List[ResourceRecord]:
        name = normalize_name(name)
        return list(self._records.get((name, RRType(rtype).value), []))

    def names(self) -> set:
        return set(self._owners)

    def record_count(self) -> int:
        return sum(len(rrset) for rrset in self._records.values())

    def bump_serial(self) -> int:
        """Commit: seal the changes made since the last commit under
        the next serial."""
        serial = self._journal.version + 1
        self._journal.append(serial, {
            "serial": serial,
            "changes": [[added, record.to_wire()]
                        for added, record in self._pending]})
        self._pending = []
        return serial

    # -- authoritative lookup -------------------------------------------------

    def _find_zone_cut(self, qname: str) -> Optional[str]:
        """The delegation point covering ``qname``, if any.

        A name is delegated away when an NS rrset exists at an ancestor
        of ``qname`` that lies strictly below this zone's origin.
        """
        name = qname
        while name != self.origin:
            if (name, RRType.NS.value) in self._records:
                return name
            if not name:
                break
            name = parent_name(name)
            if not is_subdomain(name, self.origin):
                break
        return None

    def answer(self, qname: str, qtype: RRType) -> ZoneAnswer:
        """Answer a query for a name inside this zone."""
        qname = normalize_name(qname)
        if not is_subdomain(qname, self.origin):
            return ZoneAnswer(Rcode.REFUSED, [])
        cut = self._find_zone_cut(qname)
        if cut is not None:
            return ZoneAnswer(Rcode.NOERROR, [],
                              referral=self.rrset(cut, RRType.NS),
                              authoritative=False)
        exact = self.rrset(qname, qtype)
        if exact:
            return ZoneAnswer(Rcode.NOERROR, exact)
        cname = self.rrset(qname, RRType.CNAME)
        if cname and qtype != RRType.CNAME:
            return ZoneAnswer(Rcode.NOERROR, cname)
        if qname in self._owners:
            return ZoneAnswer(Rcode.NOERROR, [])  # NODATA
        return ZoneAnswer(Rcode.NXDOMAIN, [])

    # -- zone transfer ----------------------------------------------------------

    def deltas_since(self, serial: int) -> Optional[List[dict]]:
        """The sealed change sets after ``serial``, oldest first (none
        for a copy that is up to date) — or ``None`` where the journal
        cannot take a copy from ``serial`` to here: it no longer
        reaches back that far, or this zone never issued ``serial``."""
        return self._journal.since(serial)

    def apply_delta(self, delta: dict) -> None:
        """Replay the change set that follows this copy's serial, all
        or nothing: every record is parsed and zone-checked before the
        first is applied.  The replay is journalled like any other
        change, so a copy can feed further copies."""
        if delta["serial"] != self.serial + 1:
            raise DnsError("change set %d does not follow serial %d"
                           % (delta["serial"], self.serial))
        changes = [(added, ResourceRecord.from_wire(wire))
                   for added, wire in delta["changes"]]
        for _added, record in changes:
            self._check_in_zone(record.name)
        for added, record in changes:
            if added:
                self.add_record(record)
            else:
                self.remove_record(record)
        self.bump_serial()

    def to_wire(self) -> dict:
        """Full zone contents (the full-transfer payload)."""
        return {
            "origin": self.origin,
            "primary": self.primary_host,
            "serial": self.serial,
            "default_ttl": self.default_ttl,
            "records": [record.to_wire()
                        for rrset in self._records.values()
                        for record in rrset],
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "Zone":
        """A copy at the wire's serial, with nothing journalled yet."""
        zone = cls(wire["origin"], wire["primary"],
                   default_ttl=wire.get("default_ttl", 300),
                   serial=wire["serial"])
        for record_wire in wire.get("records", []):
            zone.add_record(ResourceRecord.from_wire(record_wire))
        zone._pending = []
        return zone
