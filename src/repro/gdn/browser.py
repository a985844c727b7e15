"""User browsers and access-point selection (paper §4).

"Users communicate with only one GDN-HTTPD, in particular, with the
one nearest to them.  This HTTPD is the user's access point to the
GDN.  We currently require users to manually select this HTTPD, using
a list published on a central web site."  :func:`nearest_access_point`
is that list-plus-manual-choice, automated; the :class:`Browser` keeps
one (TLS) connection to its access point and issues GET requests.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..sim.rpc import ChannelPool
from ..sim.topology import nearest_first
from ..sim.transport import ConnectionClosed, Host
from ..sim.world import World
from .httpd import GdnHttpd

__all__ = ["Browser", "nearest_access_point", "HttpResponse"]


def nearest_access_point(host: Host, httpds: List[GdnHttpd]) -> GdnHttpd:
    """Pick the topologically nearest HTTPD from the published list."""
    if not httpds:
        raise ValueError("no access points published")
    return nearest_first(host.site, httpds,
                         lambda httpd: httpd.host.site,
                         tie=lambda httpd: httpd.host.name)[0]


class HttpResponse:
    """What a browser got back, plus client-side timing."""

    def __init__(self, status: int, body, headers: dict, elapsed: float):
        self.status = status
        self.body = body
        self.headers = headers
        self.elapsed = elapsed

    @property
    def ok(self) -> bool:
        return self.status == 200

    def __repr__(self) -> str:
        return "HttpResponse(%d, %.1f ms)" % (self.status,
                                              self.elapsed * 1000)


class Browser:
    """A user's browser bound to one access point."""

    def __init__(self, world: World, host: Host, access_point: GdnHttpd,
                 channel_wrapper: Optional[Callable] = None):
        self.world = world
        self.host = host
        self.access_point = access_point
        #: The one channel to the access point, reopened when it breaks;
        #: concurrent requests that find it broken share one reopen.
        self._pool = ChannelPool(host, channel_wrapper)
        self.requests_made = 0
        self.bytes_received = 0

    def get(self, path: str, timeout: Optional[float] = None
            ) -> Generator[object, object, HttpResponse]:
        """``response = yield from browser.get("/gdn/apps/Gimp")``

        ``timeout`` guards the request (:class:`~repro.sim.rpc.RpcTimeout`
        on expiry) — chunked transfers use it to bound each chunk fetch
        so a crashed access point can't hang the download.  It bounds
        the call on an open channel only: when the channel is broken,
        the reconnect before the call waits up to
        :data:`~repro.sim.transport.CONNECT_TIMEOUT` (3 s) for the
        handshake, whatever ``timeout`` says.  A GET that finds its
        channel broken during a partition therefore fails after about
        3 s even under a 2 s timeout.
        """
        start = self.world.now
        access_point = self.access_point
        args = {"method": "GET", "path": path}
        for attempt in (0, 1):
            channel = yield from self._pool.channel(access_point.host,
                                                    access_point.port)
            try:
                reply = yield from channel.call("http", args,
                                                timeout=timeout)
                break
            except ConnectionClosed:
                # Reconnect once: the access point may have restarted.
                # The connection broke, so the pool reopens the channel.
                if attempt == 1:
                    raise
        self.requests_made += 1
        body = reply.get("body", b"")
        self.bytes_received += (len(body)
                                if isinstance(body, (bytes, str)) else 0)
        return HttpResponse(reply.get("status", 0), body,
                            reply.get("headers", {}),
                            self.world.now - start)

    def download(self, object_name: str, file_path: str
                 ) -> Generator[object, object, HttpResponse]:
        """Fetch one file of a package through the access point."""
        response = yield from self.get("/gdn%s/files/%s"
                                       % (object_name, file_path))
        return response

    def close(self) -> None:
        self._pool.close()
