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

It closes with §6.1's remaining moderator commands and §4's GDN proxy:
a user downloads through a proxy on their own machine, the moderator
adds a file and deletes it again, drops one replica and finally
removes the package, and the example prints what search and the
user's access point answer afterwards.

Run:  python examples/package_lifecycle.py
"""

from repro.gdn.browser import Browser
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
    retire(gdn, moderator, browser, oid)


def retire(gdn, moderator, browser, oid):
    """The closing acts: a GDN proxy, then §6.1's delete, drop and
    remove commands, and what users see once the package is gone."""
    print("\n== Proxy, shrink, remove ==\n")
    package = "/apps/net/Fetchmail"

    # -- a GDN proxy on the user's own machine (§4) ---------------------------
    proxy = gdn.add_proxy("bob-proxy", "r1/c1/m0/s1")
    local = Browser(gdn.world, gdn.world.host("bob-laptop", "r1/c1/m0/s1"),
                    proxy, channel_wrapper=None)
    response = gdn.run(local.download(package, "bin/fetchmail"),
                       host=local.host)
    assert response.ok and response.body == GOOD
    print("user downloaded through a GDN proxy on their own machine: OK")

    # -- add a file, then delete it -------------------------------------------
    master = gdn.object_servers["gos-r0-0"].replicas[oid.hex].semantics

    def files():
        return [entry["path"] for entry in master.listContents()]

    gdn.run(moderator.update_package(
        package, add_files={"doc/NOTES": b"draft notes\n"}),
        host=moderator.host)
    added = files()
    gdn.run(moderator.update_package(package, del_files=["doc/NOTES"]),
            host=moderator.host)
    assert "doc/NOTES" in added and files() == ["bin/fetchmail"]
    print("moderator added doc/NOTES, then deleted it -> files: %s"
          % ", ".join(files()))

    # -- drop a replica -------------------------------------------------------
    gdn.run(moderator.drop_replica(package, "gos-r1-0"), host=moderator.host)
    hosting = [name for name, gos in sorted(gdn.object_servers.items())
               if oid.hex in gos.replicas]
    assert hosting == ["gos-r0-0"]
    print("moderator dropped the replica on gos-r1-0 -> replicas on: %s"
          % ", ".join(hosting))

    # -- remove the package ---------------------------------------------------
    gdn.run(moderator.remove_package(package), host=moderator.host)
    removed_at = gdn.world.now
    assert not any(oid.hex in gos.replicas
                   for gos in gdn.object_servers.values())
    print("moderator removed the package: name, index entry and replicas")

    page = gdn.run(browser.get("/gdn-search?keywords=mail"),
                   host=browser.host)
    found = "/gdn/apps/net/fetchmail" in page.body.lower()
    assert not found
    print("user searched keywords=mail -> found it: %s" % found)

    # The user's access point keeps serving its caching representative
    # until the copy is older than the HTTPD's own cache TTL (not the
    # scenario's 60 s).  Only then does it revalidate, and neither the
    # dropped replica nor a fresh location lookup answers: 503.
    access_point = browser.access_point
    ttl = access_point.cache_policy(package)
    print("user's access point (%s, cache TTL %.0f s) answers "
          "bin/fetchmail:" % (access_point.host.name, ttl))

    def probe():
        response = gdn.run(browser.download(package, "bin/fetchmail"),
                           host=browser.host)
        print("  t+%5.1f s: %d %s"
              % (gdn.world.now - removed_at, response.status,
                 "(cached copy)" if response.ok else response.body))
        return response.status

    statuses = [probe()]
    while statuses[-1] == 200 and gdn.world.now - removed_at < 2 * ttl:
        gdn.settle(60.0)
        statuses.append(probe())
    assert statuses[0] == 200 and statuses[-1] == 503
    print("\npackage retired")


if __name__ == "__main__":
    main()
