"""Experiment E4 — Figure 4 / §6.3: the price of channel security.

The paper secures all GDN traffic with TLS but worries: "we are paying
for something we do not need: confidentiality … If performance is
affected too negatively by the superfluous encryption and decryption we
will have to rethink our security scheme."

We measure, on one cross-region connection, the four channel
configurations of Figure 4's world:

* plain (no security at all — the June-2000 first version),
* TLS one-way auth (browser ↔ GDN host, arrows 1/2),
* TLS two-way auth (GDN host ↔ GDN host, arrow 3),
* TLS two-way, integrity-only (the rethink the paper contemplates).

For each: handshake time, then time to move a small (8 KiB) and a
large (512 KiB) payload.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..analysis.tables import Table, format_seconds
from ..security.acl import Role, role_attribute
from ..security.certs import CertificateAuthority, Credentials
from ..security.tls import client_wrapper, server_factory
from ..sim.topology import Topology
from ..sim.world import World
from ..workloads.packages import synthetic_file

__all__ = ["run_security_overhead_experiment", "format_result"]

SMALL = 8 * 1024
LARGE = 512 * 1024


def _measure_config(label: str, seed: int, secure: bool,
                    client_auth: str = "none", encryption: bool = True
                    ) -> dict:
    world = World(topology=Topology.balanced(2, 1, 1, 1), seed=seed)
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("server", "r1/c0/m0/s0")
    listener = b.listen(443)

    wrap_client = None
    wrap_server = None
    if secure:
        rng = random.Random(seed)
        ca = CertificateAuthority("gdn-ca", rng)
        server_creds = Credentials.issue_for(
            "server", ca, rng, role_attribute(Role.GDN_HOST))
        client_creds = Credentials.issue_for(
            "client", ca, rng, role_attribute(Role.GDN_HOST))
        wrap_server = server_factory(server_creds, client_auth=client_auth,
                                     encryption=encryption)
        wrap_client = client_wrapper(credentials=client_creds,
                                     encryption=encryption)

    result = {}

    def server():
        conn = yield listener.accept()
        if wrap_server is not None:
            conn = yield from wrap_server(conn)
        while True:
            try:
                message = yield conn.recv()
            except Exception:  # noqa: BLE001 - client closed
                return
            conn.send({"ack": message["n"]})

    def client():
        start = world.now
        conn = yield from a.connect(b, 443)
        if wrap_client is not None:
            conn = yield from wrap_client(conn)
        # Round-trip a tiny message to complete any handshake pipeline.
        conn.send({"n": 0, "data": b""})
        yield conn.recv()
        result["handshake"] = world.now - start

        for name, size in (("small", SMALL), ("large", LARGE)):
            start = world.now
            conn.send({"n": 1, "data": synthetic_file(name, size)})
            yield conn.recv()
            result[name] = world.now - start

    b.spawn(server())
    proc = a.spawn(client())
    world.run_until(proc, limit=1e7)
    result["label"] = label
    return result


def run_security_overhead_experiment(seed: int = 5) -> Dict:
    rows: List[dict] = [
        _measure_config("plain TCP (v1, June 2000)", seed, secure=False),
        _measure_config("TLS one-way auth", seed, secure=True,
                        client_auth="none"),
        _measure_config("TLS two-way auth", seed, secure=True,
                        client_auth="required"),
        _measure_config("TLS two-way, integrity only", seed, secure=True,
                        client_auth="required", encryption=False),
    ]
    plain = rows[0]
    for row in rows:
        row["large_overhead"] = (row["large"] / plain["large"] - 1.0) * 100
    return {"rows": rows}


def format_result(result: Dict) -> str:
    table = Table(["channel configuration", "connect+handshake",
                   "8 KiB RTT", "512 KiB RTT", "bulk overhead"],
                  title="E4 / Figure 4 - channel security cost on one "
                        "cross-region connection")
    for row in result["rows"]:
        table.add_row(row["label"], format_seconds(row["handshake"]),
                      format_seconds(row["small"]),
                      format_seconds(row["large"]),
                      "%+.1f%%" % row["large_overhead"])
    return table.render()


def assert_shape(result: Dict) -> None:
    """The §6.3 expectations."""
    plain, one_way, two_way, integrity = result["rows"]
    # Authentication costs handshake time (RSA + extra flights).
    assert one_way["handshake"] > plain["handshake"]
    assert two_way["handshake"] >= one_way["handshake"]
    # Encryption costs bulk throughput; integrity-only recovers most.
    assert two_way["large"] > plain["large"]
    assert integrity["large"] < two_way["large"]
