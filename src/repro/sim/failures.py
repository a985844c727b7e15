"""Failure injection: crashes, restarts, partitions, datagram loss.

The GDN paper lists host and network failures among the nonfunctional
aspects the middleware must absorb (§1, §6.1).  This module schedules
such failures on the simulation timeline so tests and benchmarks can
measure recovery behaviour (experiment E8) deterministically.
"""

from __future__ import annotations

from typing import Dict, Generator

from .topology import Domain, Level
from .transport import Host
from .world import World

__all__ = ["FailureInjector"]


class FailureInjector:
    """Schedules failures against a :class:`~repro.sim.world.World`.

    Fault windows on one target compose: a host stays down while any
    of its crash windows is open, and a domain stays cut off while any
    of its partition windows is.  The log records every window's edges
    as scheduled.
    """

    def __init__(self, world: World):
        self.world = world
        self.log: list[tuple[float, str, str]] = []
        #: Open crash windows per host, open partition windows per domain.
        self._crashes: Dict[Host, int] = {}
        self._partitions: Dict[Domain, int] = {}

    def _note(self, kind: str, target: str) -> None:
        self.log.append((self.world.now, kind, target))

    def _until(self, when: float) -> Generator:
        """Sleep to exactly ``when`` (``timeout(when - now)`` can land
        one ULP off); a past ``when`` does not wait."""
        if when > self.world.now:
            yield self.world.sim.timeout_at(when)

    # -- host failures ------------------------------------------------------

    def crash_restart(self, host: Host, crash_at: float,
                      restart_at: float) -> None:
        """Hard-crash ``host`` at ``crash_at`` and restart it, its
        daemons rebuilt from their configuration and disk
        (:meth:`~repro.sim.transport.Host.restart`), at ``restart_at``.
        When windows on one host overlap, the host comes back only when
        the last of them closes.
        """
        if restart_at <= crash_at:
            raise ValueError("restart must come after crash")

        def crash() -> Generator:
            yield from self._until(crash_at)
            self._note("crash", host.name)
            self._crashes[host] = self._crashes.get(host, 0) + 1
            host.crash()

        def restart() -> Generator:
            yield from self._until(restart_at)
            self._note("restart", host.name)
            self._crashes[host] -= 1
            if self._crashes[host]:
                return  # another window still holds the host down
            host.restart()
        self.world.sim.process(crash())
        self.world.sim.process(restart())

    # -- network failures ---------------------------------------------------

    def partition_domain(self, domain: Domain, start: float,
                         duration: float) -> None:
        """Cut ``domain`` off from the rest of the world for ``duration``
        (and for longer, while another of its windows is open)."""
        def fire() -> Generator:
            yield from self._until(start)
            self._note("partition", domain.path)
            self._partitions[domain] = self._partitions.get(domain, 0) + 1
            self.world.network.partition_domain(domain)
            yield self.world.sim.timeout(duration)
            self._note("heal", domain.path)
            self._partitions[domain] -= 1
            if not self._partitions[domain]:
                self.world.network.heal_domain(domain)
        self.world.sim.process(fire())

    def set_loss(self, level: Level, probability: float) -> None:
        """Make datagrams crossing ``level`` boundaries lossy."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.world.network.params.loss[level] = probability
        self._note("loss=%g" % probability, level.name)
