"""Stopping a GDN daemon: its port refuses connections at once, and a
second stop leaves alone whatever listens on that port since."""

import pytest

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.httpd import GdnHttpd
from repro.gdn.search import SearchService
from repro.gns.authority import NamingAuthority
from repro.sim.rpc import RpcServer
from repro.sim.transport import ConnectRefused

DAEMONS = {"httpd": lambda gdn: gdn.httpds[0],
           "search": lambda gdn: gdn.search,
           "authority": lambda gdn: gdn.authority}


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
def test_a_stopped_daemon_refuses_and_a_second_stop_is_a_no_op(daemon):
    gdn = GdnDeployment.from_spec({**standard_spec(1, 1, 1, 2), "seed": 3,
                                   "secure": False})
    server = DAEMONS[daemon](gdn)
    client = gdn.world.host("client", "r0/c0/m0/s1")

    def connects():
        try:
            conn = yield from client.connect(server.host, server.port)
        except ConnectRefused:
            return False
        conn.close()
        return True

    assert gdn.run(connects(), host=client)
    server.stop()
    assert not gdn.run(connects(), host=client)
    # The port is free again; a second stop must not close the
    # listener another server opened on it since.
    RpcServer(server.host, server.port).start()
    server.stop()
    assert gdn.run(connects(), host=client)


def test_stopping_a_daemon_that_never_started_does_nothing():
    gdn = GdnDeployment.from_spec({**standard_spec(1, 1, 1, 2), "seed": 3,
                                   "secure": False})
    host = gdn.world.host("spare", "r0/c0/m0/s1")
    access_point = gdn.httpds[0]
    for daemon in (GdnHttpd(gdn.world, host, access_point.runtime,
                            access_point.name_service),
                   SearchService(host),
                   NamingAuthority(gdn.world, host, gdn.dns_primary.endpoint,
                                   gdn.tsig_key)):
        daemon.stop()
    assert not host._tcp_listeners
