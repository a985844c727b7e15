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

from repro.gdn.deployment import GdnDeployment, standard_spec
from repro.gdn.maintainer import MaintenanceError
from repro.gdn.scenario import ReplicationScenario

GOOD = b"#!/bin/sh\necho fetchmail 5.0\n"
BROKEN = b"#!/bin/sh\nrm -rf $HOME  # oops\n"


def main():
    print("== A package's life in the GDN ==\n")
    gdn = GdnDeployment.from_spec({
        **standard_spec(2, 2, 1, 2), "seed": 55, "secure": True,
        "moderators": {"mod-alice": "r0/c0/m0/s1"}})

    # -- publish -----------------------------------------------------------
    moderator = gdn.moderators["mod-alice"]
    oid = gdn.run(moderator.create_package(
        "/apps/net/Fetchmail", {"bin/fetchmail": GOOD},
        ReplicationScenario.master_slave("gos-r0-0", ["gos-r1-0"],
                                         cache_ttl=60.0),
        attributes={"license": "gpl", "keywords": "mail"}),
        host=moderator.host)
    gdn.settle(3.0)
    print("moderator published /apps/net/Fetchmail (%s...)" % oid.hex[:12])

    # -- search ------------------------------------------------------------
    browser = gdn.add_browser("user-bob", "r1/c1/m0/s1")

    page = gdn.run(browser.get("/gdn-search?keywords=mail"),
                   host=browser.host)
    print("user searched keywords=mail -> found it: %s"
          % ("/gdn/apps/net/fetchmail" in page.body.lower()))

    # -- maintain ------------------------------------------------------------
    maintainer = gdn.add_maintainer("esr", "r1/c0/m0/s0",
                                    maintains=[oid.hex])

    broken_version = gdn.run(maintainer.update_contents(
        "/apps/net/Fetchmail", add_files={"bin/fetchmail": BROKEN}),
        host=maintainer.host)
    print("maintainer 'esr' shipped version %d (broken!)" % broken_version)

    master = gdn.object_servers["gos-r0-0"]
    semantics = master.replicas[oid.hex].semantics
    history = semantics.getHistory()
    print("package history: %s"
          % ", ".join("v%d:%s %s" % (e["version"], e["op"], e["path"])
                      for e in history))

    gdn.run(maintainer.restore_file("/apps/net/Fetchmail", "bin/fetchmail",
                                    broken_version), host=maintainer.host)
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
    response = gdn.run(browser.download("/apps/net/Fetchmail",
                                        "bin/fetchmail"), host=browser.host)
    assert response.ok and response.body == GOOD
    print("user downloaded the restored binary: OK\n")
    print("lifecycle complete")


if __name__ == "__main__":
    main()
