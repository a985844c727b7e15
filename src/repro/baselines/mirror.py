"""Baseline: FTP-style full mirroring (paper §1, §3.1).

"Most countries probably have their own replicas of the complete
collection of freely redistributable software packages" — the world the
GDN wants to improve on.  A mirror network copies *everything* to
*every* mirror on a fixed schedule, regardless of per-package demand:

* reads are always local to the nearest mirror (fast),
* but synchronisation traffic and disk grow with the full corpus, and
* updates are only visible after the next synchronisation round.

Experiment E3 contrasts this with the GDN's selective, per-object
replication.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..sim.rpc import RpcChannel, RpcContext, RpcServer
from ..sim.topology import nearest_first
from ..sim.transport import Host
from ..sim.world import World

__all__ = ["MirrorServer", "MirrorNetwork"]

MIRROR_PORT = 21


class MirrorServer:
    """One mirror: a full copy of the corpus as of its last sync."""

    def __init__(self, world: World, host: Host, port: int = MIRROR_PORT):
        self.world = world
        self.host = host
        self.port = port
        self.documents: Dict[str, bytes] = {}
        self.versions: Dict[str, int] = {}
        self._server: Optional[RpcServer] = None
        self.requests_served = 0
        self.bytes_served = 0

    def start(self) -> None:
        server = RpcServer(self.host, self.port)
        server.register("fetch", self._handle_fetch)
        server.register("manifest", self._handle_manifest)
        server.start()
        self._server = server

    def _handle_fetch(self, ctx: RpcContext, args: dict) -> dict:
        self.requests_served += 1
        path = args.get("path", "")
        data = self.documents.get(path)
        if data is None:
            return {"status": 404}
        self.bytes_served += len(data)
        return {"status": 200, "body": data,
                "version": self.versions.get(path, 0)}

    def _handle_manifest(self, ctx: RpcContext, args: dict) -> dict:
        return {"versions": dict(self.versions)}

    def store(self, path: str, data: bytes, version: int) -> None:
        self.documents[path] = data
        self.versions[path] = version

    def total_bytes(self) -> int:
        return sum(len(data) for data in self.documents.values())


class MirrorNetwork:
    """An origin plus mirrors synchronised on a fixed period."""

    def __init__(self, world: World, origin_host: Host,
                 sync_period: float = 3600.0):
        self.world = world
        self.origin = MirrorServer(world, origin_host)
        self.origin.start()
        self.mirrors: List[MirrorServer] = [self.origin]
        self.sync_period = sync_period
        self.syncs_completed = 0
        self._version_counter = 0

    def add_mirror(self, host: Host) -> MirrorServer:
        mirror = MirrorServer(self.world, host)
        mirror.start()
        self.mirrors.append(mirror)
        host.spawn(self._sync_loop(mirror))
        return mirror

    def publish(self, path: str, data: bytes) -> None:
        """Store (or update) a document at the origin."""
        self._version_counter += 1
        self.origin.store(path, data, self._version_counter)

    # -- synchronisation -------------------------------------------------------

    def _sync_loop(self, mirror: MirrorServer) -> Generator:
        while True:
            yield self.world.sim.timeout(self.sync_period)
            yield from self.sync_mirror(mirror)

    def sync_mirror(self, mirror: MirrorServer) -> Generator:
        """One synchronisation round: fetch every changed document."""
        channel = yield from RpcChannel.open(
            mirror.host, self.origin.host, self.origin.port)
        try:
            manifest = yield from channel.call("manifest", {})
            for path, version in sorted(manifest["versions"].items()):
                if mirror.versions.get(path, -1) >= version:
                    continue
                reply = yield from channel.call("fetch", {"path": path})
                if reply.get("status") == 200:
                    mirror.store(path, reply["body"], reply["version"])
        finally:
            channel.close()
        self.syncs_completed += 1

    def sync_all(self) -> Generator:
        """Force an immediate full sync of every mirror (tests)."""
        for mirror in self.mirrors[1:]:
            yield from self.sync_mirror(mirror)

    # -- client side -----------------------------------------------------------

    def nearest_mirror(self, host: Host) -> MirrorServer:
        return nearest_first(host.site, self.mirrors,
                             lambda mirror: mirror.host.site,
                             tie=lambda mirror: mirror.host.name)[0]

    def fetch(self, client: Host, path: str
              ) -> Generator[object, object, Tuple[int, object, float]]:
        """Fetch from the nearest mirror; returns (status, body, time)."""
        start = self.world.now
        mirror = self.nearest_mirror(client)
        channel = yield from RpcChannel.open(client, mirror.host,
                                             mirror.port)
        try:
            reply = yield from channel.call("fetch", {"path": path})
        finally:
            channel.close()
        return (reply.get("status"), reply.get("body"),
                self.world.now - start)
