"""Failure injection: crashes, restarts, partitions, datagram loss.

The GDN paper lists host and network failures among the nonfunctional
aspects the middleware must absorb (§1, §6.1).  This module schedules
such failures on the simulation timeline so tests and benchmarks can
measure recovery behaviour (experiment E8) deterministically.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from .topology import Domain, Level
from .transport import Host
from .world import World

__all__ = ["FailureInjector"]


class FailureInjector:
    """Schedules failures against a :class:`~repro.sim.world.World`."""

    def __init__(self, world: World):
        self.world = world
        self.log: list[tuple[float, str, str]] = []

    def _note(self, kind: str, target: str) -> None:
        self.log.append((self.world.now, kind, target))

    def _until(self, when: float) -> Generator:
        """Sleep to exactly ``when`` (``timeout(when - now)`` can land
        one ULP off); a past ``when`` does not wait."""
        if when > self.world.now:
            yield self.world.sim.timeout_at(when)

    # -- host failures ------------------------------------------------------

    def crash_host_at(self, host: Host, when: float) -> None:
        """Hard-crash ``host`` at absolute simulation time ``when``."""
        def fire() -> Generator:
            yield from self._until(when)
            self._note("crash", host.name)
            host.crash()
        self.world.sim.process(fire())

    def restart_host_at(self, host: Host, when: float,
                        recover: Optional[Callable[[], None]] = None) -> None:
        """Restart ``host`` at ``when``; then run ``recover()``.

        ``recover`` is where a component re-creates its daemons — e.g.
        ``gos.restart()`` reloads replica state from the persistence
        substrate, reproducing §4's reboot-reconstruction requirement.
        """
        def fire() -> Generator:
            yield from self._until(when)
            self._note("restart", host.name)
            host.restart()
            if recover is not None:
                recover()
        self.world.sim.process(fire())

    def crash_restart(self, host: Host, crash_at: float, restart_at: float,
                      recover: Optional[Callable[[], None]] = None) -> None:
        if restart_at <= crash_at:
            raise ValueError("restart must come after crash")
        self.crash_host_at(host, crash_at)
        self.restart_host_at(host, restart_at, recover)

    # -- network failures ---------------------------------------------------

    def partition_domain(self, domain: Domain, start: float,
                         duration: float) -> None:
        """Cut ``domain`` off from the rest of the world for ``duration``."""
        def fire() -> Generator:
            yield from self._until(start)
            self._note("partition", domain.path)
            self.world.network.partition_domain(domain)
            yield self.world.sim.timeout(duration)
            self._note("heal", domain.path)
            self.world.network.heal_domain(domain)
        self.world.sim.process(fire())

    def set_loss(self, level: Level, probability: float) -> None:
        """Make datagrams crossing ``level`` boundaries lossy."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.world.network.params.loss[level] = probability
        self._note("loss=%g" % probability, level.name)

    def loss_window(self, level: Level, probability: float,
                    start: float, end: float) -> None:
        """Make ``level`` crossings lossy for ``[start, end)`` only.

        Unlike :meth:`set_loss`, the prior loss rate is captured when
        the window opens and restored when it closes, so soaks can
        script *transient* link degradation — a flaky transit window a
        chunked transfer must ride out — without permanently altering
        the topology's link parameters.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if end <= start:
            raise ValueError("window end must come after start")

        def fire() -> Generator:
            yield from self._until(start)
            loss = self.world.network.params.loss
            prior = loss[level]
            loss[level] = probability
            self._note("loss=%g" % probability, level.name)
            yield from self._until(end)
            loss[level] = prior
            self._note("loss=%g" % prior, level.name)
        self.world.sim.process(fire())
