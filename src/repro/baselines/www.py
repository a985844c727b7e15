"""Baseline: a classic single-server web site (paper §1, §3.1).

The paper positions the GDN against "the Web's limited and inflexible
support for replication".  This baseline is that counterfactual: one
HTTP daemon on one host serving every request itself, with no
replication and no awareness of where clients are.  Experiment E3
measures it against the GDN under identical workloads.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..sim.rpc import RpcChannel, RpcContext, RpcServer
from ..sim.transport import Host
from ..sim.world import World

__all__ = ["WwwServer", "WwwClient"]

WWW_PORT = 80


class WwwServer:
    """One origin server hosting a set of documents."""

    def __init__(self, host: Host, port: int = WWW_PORT):
        self.host = host
        self.port = port
        self.documents: Dict[str, bytes] = {}
        self.requests_served = 0

    def publish(self, path: str, data: bytes) -> None:
        self.documents[path] = data

    def start(self) -> None:
        server = RpcServer(self.host, self.port)
        server.register("http", self._handle_http)
        server.start()

    def _handle_http(self, ctx: RpcContext, args: dict) -> dict:
        self.requests_served += 1
        path = args.get("path", "")
        data = self.documents.get(path)
        if data is None:
            return {"status": 404, "body": "no such document"}
        return {"status": 200, "body": data}


class WwwClient:
    """A browser pointed straight at the origin server."""

    def __init__(self, world: World, host: Host, server: WwwServer):
        self.world = world
        self.host = host
        self.server = server
        self._channel: Optional[RpcChannel] = None

    def get(self, path: str) -> Generator[object, object, tuple]:
        """``status, body, elapsed = yield from client.get("/doc")``"""
        start = self.world.now
        if self._channel is None or self._channel.conn.closed:
            self._channel = yield from RpcChannel.open(
                self.host, self.server.host, self.server.port)
        reply = yield from self._channel.call("http", {"path": path})
        return reply.get("status"), reply.get("body"), self.world.now - start
