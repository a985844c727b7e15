"""Authoritative DNS servers: queries, dynamic update, NOTIFY/transfer.

One server process can host several zones, as primary (accepting
RFC 2136 dynamic updates, TSIG-verified, and notifying secondaries) or
as secondary (fetching the zone by transfer when notified — how the
paper's GDN Zone "distribute[s] the load by creating multiple
authoritative name servers", §5).

Protocol methods (datagram RPC on port 53):

* ``query``  — {name, type} → {rcode, answers, referral, authoritative}
* ``update`` — {zone, adds, deletes, tsig} → {rcode, serial}; applied
  whole or not at all (FORMERR / NOTZONE name what was wrong with it)
* ``notify`` — {zone, serial}: secondary schedules a transfer
* ``axfr``   — {zone, serial?} → {rcode, deltas} | {rcode, zone}.
  ``serial`` is the serial of the copy the requester holds.  The
  answer is the change sets sealed after it, oldest first (RFC 1995
  IXFR; none when the copy is current), so a transfer costs what
  changed.  Fallback rule: the whole zone (``zone``) is sent instead
  when the request carries no ``serial`` (the requester has no copy),
  when the zone's journal no longer reaches back to it
  (:data:`~repro.core.journal.JOURNAL_DEPTH`), or when it is a serial
  this server never issued (it lost its own state).

Datagrams are lost, repeated and overtaken, so the serial numbers carry
the ordering, not the transport: a secondary applies a change set only
onto the serial just before it, skips one it already has and asks for
the whole zone when one is missing.  A whole zone older than the copy
is a late answer and is dropped — unless it answers a request made
*from* that copy, which only a primary that lost its serial does; the
primary is the authority, so the copy follows it back.  (A primary
that lost its serial must not climb past its secondaries unnoticed:
run a refresh interval, or let one NOTIFY through before it does.)

A primary writes one record to disk behind each UPDATE's reply: the
change set the UPDATE sealed, in a slot of its own (the serial modulo
:data:`~repro.core.journal.JOURNAL_DEPTH`), and the whole zone instead
at every ``JOURNAL_DEPTH``-th serial, so a write costs what changed.
Restarted, it loads the newest whole zone (or the zone as configured),
replays the stored change sets that follow it up to the first gap, and
serves the result without a journal; a secondary fetches it whole.  A
crash inside that write loses the UPDATE on the primary alone: the
primary that lost its serial above, a hole nothing closes yet.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ...core.journal import JOURNAL_DEPTH
from ...sim.kernel import Process
from ...sim.rpc import RpcContext, UdpRpcClient, UdpRpcServer
from ...sim.stable import StableStore
from ...sim.transport import Host
from ...sim.world import World
from .records import (DnsError, RRType, ResourceRecord, is_subdomain,
                      normalize_name)
from .tsig import TsigKeyring, verify_message
from .zone import Rcode, Zone

__all__ = ["AuthoritativeServer", "DNS_PORT"]

DNS_PORT = 53


def _delta_key(origin: str, serial: int) -> str:
    """The disk slot of ``origin``'s change set to ``serial``."""
    return "%s#%d" % (origin, serial % JOURNAL_DEPTH)


class AuthoritativeServer:
    """A DNS server daemon hosting primary and secondary zones."""

    COUNTS = ("queries_served", "updates_applied", "updates_rejected",
              "transfers_served", "full_transfers", "records_sent",
              "transfers_fetched", "records_applied")

    def __init__(self, world: World, host: Host, port: int = DNS_PORT,
                 keyring: Optional[TsigKeyring] = None,
                 refresh_interval: Optional[float] = None):
        """``refresh_interval`` adds classic SOA-style periodic zone
        refresh for secondaries, catching updates whose NOTIFY was
        lost (UDP)."""
        self.world = world
        self.host = host
        self.port = port
        self.keyring = keyring
        self.refresh_interval = refresh_interval
        self.zones: Dict[str, Zone] = {}
        self.roles: Dict[str, str] = {}
        #: primary zones: origin -> secondary endpoints to NOTIFY.
        self.secondaries: Dict[str, List[Tuple[str, int]]] = {}
        #: secondary zones: origin -> primary endpoint for transfers.
        self.primary_endpoint: Dict[str, Tuple[str, int]] = {}
        self._server: Optional[UdpRpcServer] = None
        self._client: Optional[UdpRpcClient] = None
        self._refresher: Optional[Process] = None
        self.persistence = StableStore(host, "dns")
        self.queries_served = 0
        self.updates_applied = 0
        self.updates_rejected = 0
        #: Transfer requests answered / of those, with the whole zone
        #: / records shipped in the answers (either form).
        self.transfers_served = 0
        self.full_transfers = 0
        self.records_sent = 0
        #: Transfers that moved a copy here forward / records in them.
        self.transfers_fetched = 0
        self.records_applied = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        server = UdpRpcServer(self.host, self.port)
        server.register("query", self._handle_query)
        server.register("update", self._handle_update)
        server.register("notify", self._handle_notify)
        server.register("axfr", self._handle_axfr)
        server.start()
        self._server = server
        self._client = UdpRpcClient(self.host, timeout=3.0, retries=2)
        if self.refresh_interval is not None:
            self._refresher = self.host.spawn(self._refresh_loop())

    def reload(self) -> Generator:
        """Primary zones from disk; return the secondaries' transfers."""
        stored = yield from self.persistence.load_all()
        for origin, role in self.roles.items():
            if role != "primary":
                continue
            wire = stored.get(origin)
            zone = self.zones[origin] if wire is None else Zone.from_wire(wire)
            base = zone.serial
            delta = stored.get(_delta_key(origin, base + 1))
            while delta is not None and delta["serial"] == zone.serial + 1:
                zone.apply_delta(delta)
                delta = stored.get(_delta_key(origin, zone.serial + 1))
            if zone.serial != base:  # served without the replay's journal
                zone = Zone.from_wire(zone.to_wire())
            self.zones[origin] = zone
        return [self.initial_transfers()]

    def _refresh_loop(self) -> Generator:
        """Periodically bring each secondary zone up to its primary's
        serial; an up-to-date copy costs one empty answer."""
        while True:
            yield self.world.sim.timeout(self.refresh_interval)
            for origin, role in list(self.roles.items()):
                if role == "secondary":
                    yield from self._fetch_zone(origin)

    def stop(self) -> None:
        if self._refresher is not None:
            self._refresher.kill()
        if self._server is not None:
            self._server.stop()
        if self._client is not None:
            self._client.close()

    @property
    def endpoint(self) -> Tuple[str, int]:
        return (self.host.name, self.port)

    # -- zone configuration -------------------------------------------------------

    def add_primary_zone(self, zone: Zone,
                         secondaries: Optional[List[Tuple[str, int]]] = None
                         ) -> None:
        endpoints = [self._endpoint(endpoint)
                     for endpoint in secondaries or []]
        self.zones[zone.origin] = zone
        self.roles[zone.origin] = "primary"
        self.secondaries[zone.origin] = endpoints

    def add_secondary_zone(self, origin: str,
                           primary: Tuple[str, int]) -> None:
        """Declare a secondary zone; the initial copy is fetched when
        the simulation runs (call :meth:`initial_transfers`)."""
        origin = normalize_name(origin)
        primary = self._endpoint(primary)
        self.roles[origin] = "secondary"
        self.primary_endpoint[origin] = primary

    def _endpoint(self, endpoint: Tuple[str, int]) -> Tuple[str, int]:
        """``endpoint``, refused unless its host exists: NOTIFY and
        transfers look the host up by name."""
        if endpoint[0] not in self.world.hosts:
            raise ValueError("no host %r in this world" % (endpoint[0],))
        return tuple(endpoint)

    def initial_transfers(self) -> Generator:
        """Fetch initial copies of all secondary zones."""
        for origin, role in self.roles.items():
            if role == "secondary" and origin not in self.zones:
                yield from self._fetch_zone(origin)

    # -- query handling ---------------------------------------------------------

    def _zone_for(self, qname: str) -> Optional[Zone]:
        """The most specific hosted zone containing ``qname``."""
        best: Optional[Zone] = None
        for origin, zone in self.zones.items():
            if is_subdomain(qname, origin):
                if best is None or len(origin) > len(best.origin):
                    best = zone
        return best

    def _handle_query(self, ctx: RpcContext, args: dict) -> dict:
        self.queries_served += 1
        qname = normalize_name(args.get("name", ""))
        qtype = RRType(args.get("type", "A"))
        zone = self._zone_for(qname)
        if zone is None:
            return {"rcode": Rcode.REFUSED, "answers": [], "referral": [],
                    "authoritative": False}
        answer = zone.answer(qname, qtype)
        return {
            "rcode": answer.rcode,
            "answers": [record.to_wire() for record in answer.answers],
            "referral": [record.to_wire() for record in answer.referral],
            "authoritative": answer.authoritative,
            "zone": zone.origin,
        }

    # -- dynamic update (RFC 2136) ---------------------------------------------

    def _handle_update(self, ctx: RpcContext, args: dict) -> dict:
        origin = normalize_name(args.get("zone", ""))
        zone = self.zones.get(origin)
        if zone is None or self.roles.get(origin) != "primary":
            return self._reject_update(Rcode.NOTAUTH)
        if self.keyring is None or not verify_message(args, self.keyring):
            return self._reject_update(Rcode.BADSIG)
        # All or nothing (RFC 2136 §3.4): the whole update is parsed
        # and zone-checked before the zone is touched.
        try:
            deletes = [(normalize_name(delete["name"]),
                        RRType(delete["type"]))
                       for delete in args.get("deletes", [])]
            adds = [ResourceRecord.from_wire(add)
                    for add in args.get("adds", [])]
        except (DnsError, KeyError, TypeError, ValueError):
            return self._reject_update(Rcode.FORMERR)
        names = [name for name, _rtype in deletes]
        names.extend(record.name for record in adds)
        if not all(is_subdomain(name, origin) for name in names):
            return self._reject_update(Rcode.NOTZONE)
        for name, rtype in deletes:
            zone.remove_rrset(name, rtype)
        for record in adds:
            zone.add_record(record)
        serial = zone.bump_serial()
        self.updates_applied += 1
        for endpoint in self.secondaries.get(origin, []):
            self.host.spawn(self._notify_one(endpoint, origin, serial))
        if serial % JOURNAL_DEPTH:
            key = _delta_key(origin, serial)
            record = zone.deltas_since(serial - 1)[0]
        else:
            key, record = origin, zone.to_wire()
        self.host.spawn(self.persistence.save(key, record))
        return {"rcode": Rcode.NOERROR, "serial": serial}

    def _reject_update(self, rcode: str) -> dict:
        self.updates_rejected += 1
        return {"rcode": rcode}

    def _notify_one(self, endpoint: Tuple[str, int], origin: str,
                    serial: int) -> Generator:
        host_name, port = endpoint
        target = self.world.hosts[host_name]
        try:
            yield from self._client.call(target, port, "notify",
                                         {"zone": origin, "serial": serial})
        except Exception:  # noqa: BLE001 - notify is best-effort
            pass

    # -- NOTIFY / transfer ---------------------------------------------------

    def _handle_notify(self, ctx: RpcContext, args: dict) -> Generator:
        origin = normalize_name(args.get("zone", ""))
        if self.roles.get(origin) != "secondary":
            return {"rcode": Rcode.NOTAUTH}
        current = self.zones.get(origin)
        if current is not None and current.serial == args.get("serial"):
            return {"rcode": Rcode.NOERROR, "refreshed": False}
        # A serial *below* the copy's is an overtaken NOTIFY, which
        # costs one empty answer, or a primary that lost its serial,
        # which the transfer finds out.
        yield from self._fetch_zone(origin)
        return {"rcode": Rcode.NOERROR, "refreshed": True}

    def _handle_axfr(self, ctx: RpcContext, args: dict) -> dict:
        origin = normalize_name(args.get("zone", ""))
        zone = self.zones.get(origin)
        if zone is None:
            return {"rcode": Rcode.NOTAUTH}
        self.transfers_served += 1
        serial = args.get("serial")
        deltas = None if serial is None else zone.deltas_since(serial)
        if deltas is None:
            # No copy to build on, or none the journal reaches.
            wire = zone.to_wire()
            self.full_transfers += 1
            self.records_sent += len(wire["records"])
            return {"rcode": Rcode.NOERROR, "zone": wire}
        self.records_sent += sum(len(delta["changes"]) for delta in deltas)
        return {"rcode": Rcode.NOERROR, "deltas": deltas}

    def _fetch_zone(self, origin: str, incremental: bool = True
                    ) -> Generator:
        """Bring the copy of ``origin`` up to its primary's serial.

        The one transfer path: NOTIFY, :meth:`initial_transfers` and
        the refresh loop all end here.  Several may be in flight at
        once and their answers arrive in any order, so an answer is
        judged against the copy as it stands when the answer arrives.
        """
        host_name, port = self.primary_endpoint[origin]
        target = self.world.hosts[host_name]
        request = {"zone": origin}
        current = self.zones.get(origin)
        if incremental and current is not None:
            request["serial"] = current.serial
        try:
            reply = yield from self._client.call(target, port, "axfr", request)
        except Exception:  # noqa: BLE001 - retried on next NOTIFY/refresh
            return
        if reply.get("rcode") != Rcode.NOERROR:
            return
        current = self.zones.get(origin)
        wire = reply.get("zone")
        if wire is not None:
            # Newer than the copy — or older than the very copy it was
            # asked from, which only a primary that lost its serial
            # sends (an older zone asked from an older copy is late).
            asked = request.get("serial")
            if current is None or wire["serial"] > current.serial or (
                    wire["serial"] < current.serial == asked):
                self.zones[origin] = Zone.from_wire(wire)
                self.transfers_fetched += 1
                self.records_applied += len(wire["records"])
            return
        # Change sets apply only onto the serial just before them.
        before = current.serial
        for delta in reply["deltas"]:
            if delta["serial"] <= current.serial:
                continue  # a concurrent transfer got here first
            if delta["serial"] != current.serial + 1:
                # The copy is no longer where this answer expected it
                # (it followed a reset primary back meanwhile): start
                # over from the whole zone.
                yield from self._fetch_zone(origin, incremental=False)
                return
            current.apply_delta(delta)
            self.records_applied += len(delta["changes"])
        if current.serial != before:
            self.transfers_fetched += 1
