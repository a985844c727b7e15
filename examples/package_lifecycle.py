#!/usr/bin/env python3
"""The full life of a package: publish, search, maintain, roll back.

Exercises the paper's §2 user-community model end to end, including
the two §8 future-work features this reproduction implements:

* the moderator publishes a package with searchable attributes,
* a user *finds* it via attribute-based search through their HTTPD,
* a **maintainer** (§2's fourth group) — authorized for just this one
  package — ships a broken update,
* the maintainer rolls the file back using the version-management
  facilities (mutation history + retained contents),
* and a different maintainer is refused.

Run:  python examples/package_lifecycle.py
"""

from repro.gdn.deployment import GdnDeployment
from repro.gdn.maintainer import MaintenanceError
from repro.gdn.scenario import ReplicationScenario
from repro.sim.topology import Topology

GOOD = b"#!/bin/sh\necho fetchmail 5.0\n"
BROKEN = b"#!/bin/sh\nrm -rf $HOME  # oops\n"


def main():
    print("== A package's life in the GDN ==\n")
    gdn = GdnDeployment(
        topology=Topology.balanced(regions=2, countries=2, cities=1,
                                   sites=2),
        seed=55, secure=True)
    gdn.standard_fleet()
    gdn.initial_sync()

    # -- publish -----------------------------------------------------------
    moderator = gdn.add_moderator("mod-alice", "r0/c0/m0/s1")

    def publish():
        oid = yield from moderator.create_package(
            "/apps/net/Fetchmail", {"bin/fetchmail": GOOD},
            ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"],
                                             cache_ttl=60.0),
            attributes={"license": "gpl", "keywords": "mail"})
        return oid

    oid = gdn.run(publish(), host=moderator.host)
    gdn.settle(3.0)
    print("moderator published /apps/net/Fetchmail (%s...)" % oid.hex[:12])

    # -- search ------------------------------------------------------------
    browser = gdn.add_browser("user-bob", "r1/c1/m0/s1")

    def search():
        page = yield from browser.get("/gdn-search?keywords=mail")
        return page

    page = gdn.run(search(), host=browser.host)
    print("user searched keywords=mail -> found it: %s"
          % ("/gdn/apps/net/fetchmail" in page.body.lower()))

    # -- maintain ------------------------------------------------------------
    maintainer = gdn.add_maintainer("esr", "r1/c0/m0/s0",
                                    maintains=[oid.hex])

    def break_it():
        version = yield from maintainer.update_contents(
            "/apps/net/Fetchmail", add_files={"bin/fetchmail": BROKEN})
        return version

    broken_version = gdn.run(break_it(), host=maintainer.host)
    print("maintainer 'esr' shipped version %d (broken!)" % broken_version)

    master = gdn.object_servers["gos-r0-0"]
    semantics = master.replicas[oid.hex].semantics
    history = semantics.getHistory()
    print("package history: %s"
          % ", ".join("v%d:%s %s" % (e["version"], e["op"], e["path"])
                      for e in history))

    def roll_back():
        yield from maintainer.restore_file("/apps/net/Fetchmail",
                                           "bin/fetchmail",
                                           broken_version)

    gdn.run(roll_back(), host=maintainer.host)
    assert semantics.getFileContents("bin/fetchmail") == GOOD
    print("maintainer rolled bin/fetchmail back -> contents restored")

    # -- authorization boundary ------------------------------------------------
    stranger = gdn.add_maintainer("stranger", "r0/c1/m0/s0")

    def intrude():
        try:
            yield from stranger.update_contents(
                "/apps/net/Fetchmail", add_files={"evil": b"x"})
            return "accepted"
        except MaintenanceError:
            return "refused"

    outcome = gdn.run(intrude(), host=stranger.host)
    print("a maintainer of *other* packages tried to modify it: %s"
          % outcome)

    # -- download still works ---------------------------------------------------
    def download():
        response = yield from browser.download("/apps/net/Fetchmail",
                                               "bin/fetchmail")
        return response

    response = gdn.run(download(), host=browser.host)
    assert response.ok and response.body == GOOD
    print("user downloaded the restored binary: OK\n")
    print("lifecycle complete")


if __name__ == "__main__":
    main()
