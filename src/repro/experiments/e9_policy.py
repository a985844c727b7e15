"""Experiment E9 — §6.1: unauthorized use is refused, at what cost.

Walks the §6.1 requirement list with concrete attacks against a
secured deployment and reports, for each, whether it was refused and
how long the refusal took (attackers cannot even burn much server
time):

1. a non-moderator sends object-server control commands;
2. an anonymous user sends a state-modifying invocation;
3. a host outside the GDN registers a contact address in the GLS;
4. an unsigned (non-TSIG) DNS UPDATE tries to hijack a package name;
5. a rogue CA's certificate tries to pass TLS authentication;
6. a non-moderator asks the naming authority to add a name.

The legitimate moderator path is measured alongside as the baseline.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import Table, format_seconds
from ..core.ids import ContactAddress, ObjectId
from ..gdn.deployment import GdnDeployment, standard_spec
from ..gdn.moderator import ModerationError
from ..gdn.scenario import ReplicationScenario
from ..gls.service import GlsClient, GlsError
from ..gns.dns.zone import Rcode
from ..security.tls import HandshakeError, client_wrapper
from ..sim import rpc
from ..workloads.packages import synthetic_file

__all__ = ["run_policy_experiment", "format_result"]


def run_policy_experiment(seed: int = 37) -> Dict:
    gdn = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": seed, "secure": True,
        "moderators": {"mod-legit": "r0/c0/m0/s1"}})
    moderator = gdn.moderators["mod-legit"]
    rows: List[dict] = []

    def record(label, outcome, elapsed, expectation):
        rows.append({"operation": label, "outcome": outcome,
                     "elapsed": elapsed, "expected": expectation})

    # Baseline: the legitimate moderator creates a package.
    def legit():
        start = gdn.world.now
        yield from moderator.create_package(
            "/apps/net/legit", {"README": synthetic_file("ok", 1000)},
            ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"]))
        return gdn.world.now - start

    elapsed = gdn.run(legit(), host=moderator.host)
    record("moderator creates package", "accepted", elapsed, "accepted")

    gos = gdn.object_servers["gos-r0-0"]
    target_oid = moderator.catalog["/apps/net/legit"]["oid"]

    # Attack 1: control command from a certificate without the role.
    attacker = gdn.add_moderator("rando", "r1/c0/m0/s0")
    from ..security.acl import Role
    gdn.registry.revoke("rando", Role.MODERATOR)

    def attack_control():
        start = gdn.world.now
        try:
            yield from attacker.create_package(
                "/apps/net/evil", {"x": b"x"},
                ReplicationScenario.single_server("gos-r0-0"))
            return "accepted", gdn.world.now - start
        except ModerationError:
            return "refused", gdn.world.now - start

    outcome, elapsed = gdn.run(attack_control(), host=attacker.host)
    record("GOS control command, no moderator role", outcome, elapsed,
           "refused")

    # Attack 2: anonymous write invocation against a replica.
    user_host = gdn.world.host("anon-writer", "r0/c1/m0/s0")
    runtime = gdn._runtime(user_host, gdn_host=False)

    def attack_write():
        start = gdn.world.now
        lr = yield from runtime.bind(ObjectId.from_hex(target_oid))
        try:
            yield from lr.invoke("addFile", {"path": "evil",
                                             "data": b"trojan"})
            return "accepted", gdn.world.now - start
        except Exception:  # noqa: BLE001
            return "refused", gdn.world.now - start

    outcome, elapsed = gdn.run(attack_write(), host=user_host)
    record("anonymous state-modifying invocation", outcome, elapsed,
           "refused")

    # Attack 3: GLS registration without the GDN key (§6.1 req. 2).
    spoofer_host = gdn.world.host("gls-spoofer", "r0/c0/m0/s0")
    spoofer = GlsClient(gdn.world, spoofer_host, gdn.gls)  # no auth key

    def attack_gls():
        start = gdn.world.now
        wire = ContactAddress("gls-spoofer", 7100, "client_server",
                              role="server", impl_id="gdn.package",
                              site_path="r0/c0/m0/s0").to_wire()
        try:
            yield from spoofer.register(target_oid, wire)
            return "accepted", gdn.world.now - start
        except GlsError:
            return "refused", gdn.world.now - start

    outcome, elapsed = gdn.run(attack_gls(), host=spoofer_host)
    record("GLS registration from non-GDN host", outcome, elapsed,
           "refused")

    # Attack 4: unsigned DNS UPDATE against the GDN Zone (§6.3 TSIG).
    updater_host = gdn.world.host("dns-attacker", "r1/c1/m0/s0")
    from ..sim.rpc import UdpRpcClient
    udp = UdpRpcClient(updater_host)

    def attack_dns():
        start = gdn.world.now
        reply = yield from udp.call(
            gdn.dns_primary.host, 53, "update",
            {"zone": gdn.zone, "deletes": [],
             "adds": [{"name": "legit.net.apps." + gdn.zone,
                       "type": "TXT", "ttl": 60,
                       "data": "globe-oid=" + "f" * 40}]})
        outcome = ("refused" if reply.get("rcode") == Rcode.BADSIG
                   else "accepted")
        return outcome, gdn.world.now - start

    outcome, elapsed = gdn.run(attack_dns(), host=updater_host)
    record("unsigned DNS UPDATE on GDN Zone", outcome, elapsed, "refused")

    # Attack 5: rogue-CA certificate at a TLS endpoint.
    import random as _random
    from ..security.certs import CertificateAuthority, Credentials
    rogue_ca = CertificateAuthority("rogue-ca", _random.Random(99))
    rogue_creds = Credentials.issue_for("mod-legit", rogue_ca,
                                        _random.Random(100))
    mitm_host = gdn.world.host("mitm", "r0/c1/m0/s1")

    def attack_tls():
        start = gdn.world.now
        try:
            yield from rpc.call(
                mitm_host, gos.host, gos.port, "create_object", {},
                channel_wrapper=client_wrapper(credentials=rogue_creds))
            return "accepted", gdn.world.now - start
        except (HandshakeError, Exception):  # noqa: BLE001
            return "refused", gdn.world.now - start

    outcome, elapsed = gdn.run(attack_tls(), host=mitm_host)
    record("TLS client cert from rogue CA", outcome, elapsed, "refused")

    # Attack 6: naming authority request from a non-moderator.
    def attack_authority():
        start = gdn.world.now
        try:
            yield from rpc.call(
                attacker.host, gdn.authority.host, gdn.authority.port,
                "add_name", {"name": "/apps/Hijack", "oid": "a" * 40},
                channel_wrapper=attacker.runtime.pool.channel_wrapper)
            return "accepted", gdn.world.now - start
        except rpc.RpcFault:
            return "refused", gdn.world.now - start

    outcome, elapsed = gdn.run(attack_authority(), host=attacker.host)
    record("naming-authority add from non-moderator", outcome, elapsed,
           "refused")

    return {"rows": rows}


def format_result(result: Dict) -> str:
    table = Table(["operation", "outcome", "expected", "time to verdict"],
                  title="E9 / §6.1 - authorization policy enforcement")
    for row in result["rows"]:
        table.add_row(row["operation"], row["outcome"], row["expected"],
                      format_seconds(row["elapsed"]))
    return table.render()


def assert_shape(result: Dict) -> None:
    for row in result["rows"]:
        assert row["outcome"] == row["expected"], row["operation"]
