"""The ``World``: one bundle of simulator + topology + network + hosts.

Every experiment builds exactly one :class:`World` and creates all of
its components (GLS nodes, DNS servers, object servers, HTTPDs,
clients) against it.  The world also hands out deterministic per-label
random streams so that adding a new randomised component never perturbs
the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Optional, Union

from ..analysis.telemetry import MetricsRegistry
from .deadlines import shared_pool
from .kernel import Process, Simulator
from .network import LinkParameters, Network
from .topology import Domain, Topology
from .transport import Host

__all__ = ["World"]


class World:
    """A self-contained simulated internet.

    The world also owns the telemetry registry (``world.metrics``):
    the kernel's event/timer counters and the network's per-level
    traffic ledgers are bound at construction, and every component
    added later (GLS nodes, object servers, HTTPDs, load stats) binds
    its own instruments, so one registry answers for the whole run —
    including phase windows (``world.metrics.phase(...)``).
    """

    def __init__(self, topology: Optional[Topology] = None,
                 params: Optional[LinkParameters] = None, seed: int = 0):
        self.seed = seed
        self.sim = Simulator()
        self.topology = topology or Topology.balanced()
        self.network = Network(self.sim, self.topology, params, seed=seed)
        self.hosts: Dict[str, Host] = {}
        self.metrics = MetricsRegistry()
        self.sim.bind_metrics(self.metrics)
        # The simulator-wide mixed-deadline pool (channel call
        # timeouts, connect guards) reports next to the kernel's own
        # timer counters.
        shared_pool(self.sim).bind_metrics(self.metrics,
                                           "kernel.deadline_pool")
        self.network.meter.bind_metrics(self.metrics)

    # -- host management --------------------------------------------------

    def host(self, name: str, site: Union[str, Domain]) -> Host:
        """Create a host attached to ``site`` (a Domain or site path)."""
        if name in self.hosts:
            raise ValueError("duplicate host name %r" % name)
        if isinstance(site, str):
            site = self.topology.site(site)
        host = Host(self.network, name, site)
        self.hosts[name] = host
        return host

    # -- determinism helpers ----------------------------------------------

    def rng_for(self, label: str) -> random.Random:
        """A random stream seeded from ``(world seed, label)``.

        Stable across runs and independent of creation order.
        """
        digest = hashlib.sha256(
            ("%d/%s" % (self.seed, label)).encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    # -- execution ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until)

    def run_until(self, process: Process, limit: float = float("inf")) -> Any:
        """Run until ``process`` completes; return its value."""
        return self.sim.run_until_complete(process, limit)
