"""Integration tests under network failures and active adversaries.

Covers the §6.1 availability threats (host/network failures) and the
§6.3 residual risk analysis: "attackers can only prevent resolution of
object names … or cause an object name to resolve to an invalid object
identifier or to one belonging to another object" — misdirection, not
forgery.
"""

import pytest

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.scenario import ReplicationScenario
from repro.gns.dns.records import ResourceRecord, RRType
from repro.gns.dns.resolver import CachingResolver
from repro.gns.dns.server import DNS_PORT, AuthoritativeServer
from repro.gns.dns.zone import Zone
from repro.gns.gns import GlobeNameService
from repro.sim.failures import FailureInjector


@pytest.fixture
def gdn():
    deployment = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 404, "secure": True,
        "moderators": {"mod": "r0/c0/m0/s1"}})
    moderator = deployment.moderators["mod"]
    oid = deployment.run(moderator.create_package(
        "/apps/science/Octave", {"README": b"gnu octave"},
        ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"],
                                         cache_ttl=120.0)),
        host=moderator.host)
    deployment.settle(5.0)
    return deployment, oid


def test_partitioned_region_keeps_serving_reads(gdn):
    """Replication is the §6.1 availability answer: a region cut off
    from the rest of the world still serves reads from its replica."""
    deployment, _oid = gdn
    browser = deployment.add_browser("user-r1", "r1/c1/m0/s1")

    assert deployment.run(browser.download("/apps/science/Octave",
                                           "README"), host=browser.host).ok

    # Cut region r1 off from the world.
    region = deployment.world.topology.domain("r1")
    deployment.world.network.partition_domain(region)

    response = deployment.run(browser.download("/apps/science/Octave",
                                               "README"), host=browser.host)
    assert response.ok
    assert response.body == b"gnu octave"
    deployment.world.network.heal_domain(region)


def test_writes_fail_inside_partition_then_recover(gdn):
    """The master is outside the partition: writes cannot commit, and
    succeed again after the partition heals."""
    deployment, oid = gdn
    maintainer = deployment.add_maintainer("mnt", "r1/c0/m0/s1",
                                           maintains=[oid.hex])
    region = deployment.world.topology.domain("r1")
    deployment.world.network.partition_domain(region)

    from repro.gdn.maintainer import MaintenanceError

    def write_during_partition():
        try:
            yield from maintainer.update_contents(
                "/apps/science/Octave", add_files={"NEWS": b"trapped"})
            return "accepted"
        except (MaintenanceError, Exception):  # noqa: BLE001
            return "failed"

    assert deployment.run(write_during_partition(),
                          host=maintainer.host) == "failed"
    deployment.world.network.heal_domain(region)

    deployment.run(maintainer.update_contents(
        "/apps/science/Octave", add_files={"NEWS": b"healed"}),
        host=maintainer.host)
    master = deployment.object_servers["gos-r0-0"]
    assert (master.replicas[oid.hex].semantics.getFileContents("NEWS")
            == b"healed")


def test_scheduled_crash_restart_with_injector(gdn):
    deployment, oid = gdn
    slave = deployment.object_servers["gos-r1-0"]
    injector = FailureInjector(deployment.world)
    start = deployment.world.now
    injector.crash_restart(slave.host, crash_at=start + 5.0,
                           restart_at=start + 10.0)
    deployment.world.run(until=start + 20.0)
    assert slave.host.up
    recovered = deployment.object_servers["gos-r1-0"]
    assert recovered is not slave and oid.hex in recovered.replicas


def test_dns_spoofing_misdirects_but_cannot_forge(gdn):
    """§6.3: a spoofed resolver can break resolution or point a name at
    another object, but TSIG/TLS/GLS auth keep contents unforgeable."""
    deployment, oid = gdn
    world = deployment.world

    # The attacker runs a fake DNS hierarchy claiming the GDN zone and
    # answers with an OID of their choosing (here: a nonexistent one).
    evil_host = world.host("evil-dns", "r1/c0/m0/s1")
    evil = AuthoritativeServer(world, evil_host)
    evil_root = Zone("", primary_host="evil-dns")
    evil_root.add_record(ResourceRecord(
        "octave.science.apps." + deployment.zone, RRType.TXT, 300,
        "globe-oid=" + "d" * 40))
    evil.add_primary_zone(evil_root)
    evil.start()

    # A victim whose resolver was misconfigured (spoofed) to the
    # attacker's server.
    victim_host = world.host("victim", "r1/c1/m0/s0")
    spoofed_resolver = CachingResolver(world, victim_host,
                                       [("evil-dns", DNS_PORT)])
    gns = GlobeNameService(spoofed_resolver, zone=deployment.zone)
    runtime = deployment._runtime(victim_host, gdn_host=False)

    def attempt():
        from repro.core.ids import ObjectId
        from repro.core.runtime import BindError
        oid_hex = yield from gns.resolve("/apps/science/Octave")
        try:
            yield from runtime.bind(ObjectId.from_hex(oid_hex))
        except BindError:
            return ("misdirected-but-unbound", oid_hex)
        return ("bound", oid_hex)

    outcome, spoofed_oid = deployment.run(attempt(), host=victim_host)
    # The name resolved to the attacker's OID (misdirection works)...
    assert spoofed_oid == "d" * 40
    # ...but the GLS has no (authenticated) registration for it, so the
    # victim gets nothing — and certainly not forged package contents.
    assert outcome == "misdirected-but-unbound"


def test_overlapping_crash_windows_hold_the_host_down_until_the_last():
    # Regression: the first window's restart brought the host back
    # while the second still held it down, and the second restart then
    # rebuilt the daemons of a live host: "TCP port 7100 already
    # listening".
    deployment = GdnDeployment.from_spec(
        {**standard_spec(2, 2, 2, 2), "seed": 3, "secure": False})
    gos = deployment.object_servers["gos-r0-0"]
    injector = FailureInjector(deployment.world)
    t0 = deployment.world.now
    injector.crash_restart(gos.host, t0 + 1.0, t0 + 10.0)
    injector.crash_restart(gos.host, t0 + 5.0, t0 + 15.0)
    deployment.world.run(until=t0 + 12.0)
    assert not gos.host.up
    deployment.world.run(until=t0 + 20.0)
    assert gos.host.up
    assert gos.host.incarnation == 1  # one restart, at t0 + 15
    assert gos.host.recovery.triggered
    assert [kind for _t, kind, _host in injector.log] == [
        "crash", "crash", "restart", "restart"]
