"""Geo-distributed client populations and request streams (§3.1).

"With interested people distributed all over the world replicas must
be created close to where the clients are."  The population model
places clients across topology regions (optionally skewed), gives each
object a *home region* where its demand concentrates, and produces a
deterministic time-ordered request stream.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional

from ..sim.topology import Domain, Topology
from .loadgen import Arrival
from .zipf import ZipfSampler

__all__ = ["RequestStream", "ClientPopulation"]


class RequestStream:
    """A finite, time-sorted list of :class:`~repro.workloads.loadgen
    .Arrival`\\ s plus per-object usage summaries."""

    def __init__(self, requests: List[Arrival]):
        # Stable, and linear on the already time-ordered streams that
        # generators and replays produce.
        self.requests = sorted(requests, key=lambda r: r.time)

    def __iter__(self) -> Iterator[Arrival]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def reads_by_region(self, rank: int) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for request in self.requests:
            if request.kind == "read" and request.rank == rank:
                region = request.site.region().path
                counts[region] = counts.get(region, 0) + 1
        return counts

    def writes(self, rank: int) -> int:
        return sum(1 for request in self.requests
                   if request.kind == "write" and request.rank == rank)


class ClientPopulation:
    """Generates request streams over a topology.

    * object popularity: Zipf(``alpha``);
    * locality: each object has a home region receiving
      ``home_share`` of its reads, the rest spread uniformly;
    * writes: per-object write rates, issued from the home region
      (moderators/maintainers live near their package's community);
    * arrivals: exponential inter-arrival times at ``request_rate``
      requests per second overall.
    """

    def __init__(self, topology: Topology, object_count: int,
                 rng: random.Random, alpha: float = 1.0,
                 home_share: float = 0.7,
                 write_fraction: Optional[List[float]] = None):
        self.rng = rng
        self.home_share = home_share
        self.regions = list(topology.world.children.values())
        self.popularity = ZipfSampler(object_count, alpha, rng)
        #: per-object probability that a request is a write.
        self.write_fraction = write_fraction or [0.0] * object_count
        #: per-object home region, assigned round-robin-with-noise.
        self.home_region: List[Domain] = [
            self.regions[(index + rng.randrange(len(self.regions)))
                         % len(self.regions)]
            for index in range(object_count)]

    def _site_in(self, region: Domain) -> Domain:
        sites = list(region.sites())
        return sites[self.rng.randrange(len(sites))]

    def _site_for(self, rank: int) -> Domain:
        if self.rng.random() < self.home_share:
            return self._site_in(self.home_region[rank])
        return self._site_in(
            self.regions[self.rng.randrange(len(self.regions))])

    def generate(self, request_count: int,
                 request_rate: float = 10.0) -> RequestStream:
        """A deterministic stream of ``request_count`` requests."""
        requests: List[Arrival] = []
        now = 0.0
        for index in range(request_count):
            now += self.rng.expovariate(request_rate)
            rank = self.popularity.sample()
            if self.rng.random() < self.write_fraction[rank]:
                site = self._site_in(self.home_region[rank])
                requests.append(Arrival(index, now, site, rank, "write"))
            else:
                site = self._site_for(rank)
                requests.append(Arrival(index, now, site, rank, "read"))
        return RequestStream(requests)
