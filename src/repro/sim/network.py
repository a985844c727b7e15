"""Wide-area network model: latency, bandwidth, traffic accounting.

The network charges each message a delay of

    one_way_latency(separation) + size / bandwidth(separation) + jitter

where *separation* is the level of the lowest common ancestor of the
two endpoints' sites (:class:`repro.sim.topology.Level`).  This is the
store-and-forward abstraction: no packet-level congestion, but the
latency/bandwidth tiering reproduces the wide-area cost structure the
GDN paper's design arguments rest on (replicas near clients save both
time and wide-area bandwidth, §3.1).

Traffic is metered per separation level, so experiments can report
"wide-area traffic" (bytes whose path crossed a REGION or WORLD
boundary) exactly the way the paper's motivating study does.

Failures: hosts can be marked down (messages to them are lost),
domains can be partitioned (messages crossing the domain boundary are
lost), and lossy levels can drop a deterministic pseudo-random fraction
of datagrams.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from .kernel import BatchTimeout, Simulator, Timeout
from .topology import Domain, Level, Topology

__all__ = ["LinkParameters", "TrafficMeter", "Network", "NetworkError"]


class NetworkError(Exception):
    """Raised for malformed network operations."""


#: Default one-way latency per separation level, seconds.
DEFAULT_LATENCY = {
    Level.SITE: 0.0003,     # same campus LAN
    Level.CITY: 0.002,      # metro
    Level.COUNTRY: 0.010,   # national backbone
    Level.REGION: 0.040,    # continental
    Level.WORLD: 0.150,     # intercontinental
}

#: Default bottleneck bandwidth per separation level, bytes/second.
DEFAULT_BANDWIDTH = {
    Level.SITE: 100e6,
    Level.CITY: 50e6,
    Level.COUNTRY: 20e6,
    Level.REGION: 5e6,
    Level.WORLD: 1.5e6,
}


class LinkParameters:
    """Latency/bandwidth/loss per separation level.

    Latency and bandwidth are :data:`DEFAULT_LATENCY` and
    :data:`DEFAULT_BANDWIDTH` as they stand when the parameters are
    made.  ``loss`` applies only to unreliable (datagram) traffic;
    reliable connections model retransmission as extra delay instead.
    """

    def __init__(self, loss: Optional[Dict[Level, float]] = None,
                 jitter_fraction: float = 0.0):
        self.latency = dict(DEFAULT_LATENCY)
        self.bandwidth = dict(DEFAULT_BANDWIDTH)
        self.loss = {level: 0.0 for level in Level}
        if loss:
            self.loss.update(loss)
        if not 0.0 <= jitter_fraction < 1.0:
            raise NetworkError("jitter_fraction must be in [0, 1)")
        self.jitter_fraction = jitter_fraction


class TrafficMeter:
    """Counts bytes and messages by separation level.

    The hot ledgers stay plain dicts (``record`` runs once per
    message); :meth:`bind_metrics` additionally exposes them as
    function-backed per-:class:`Level` counters in a
    :class:`~repro.analysis.telemetry.MetricsRegistry`, which is what
    makes phase-scoped traffic windows possible
    (:meth:`wide_area_delta`).
    """

    def __init__(self):
        self.bytes_by_level: Dict[Level, int] = {lvl: 0 for lvl in Level}
        self.messages_by_level: Dict[Level, int] = {lvl: 0 for lvl in Level}
        self.dropped_messages = 0

    def record(self, level: Level, size: int) -> None:
        self.bytes_by_level[level] += size
        self.messages_by_level[level] += 1

    def record_drop(self) -> None:
        self.dropped_messages += 1

    def bind_metrics(self, registry) -> None:
        """Register per-level byte/message counters as a view over the
        ledgers — ``net.bytes.WORLD``, ``net.messages.SITE``, ... plus
        ``net.dropped``.  Zero cost on the delivery path."""
        for level in Level:
            registry.counter(
                "net.bytes." + level.name,
                fn=lambda ledger=self.bytes_by_level, key=level:
                    ledger[key])
            registry.counter(
                "net.messages." + level.name,
                fn=lambda ledger=self.messages_by_level, key=level:
                    ledger[key])
        registry.counter("net.dropped", fn=lambda: self.dropped_messages)

    def wide_area_delta(self, window) -> int:
        """Bytes this meter carried across region or world boundaries
        inside a :class:`PhaseWindow` (requires :meth:`bind_metrics` on
        the window's registry)."""
        return sum(window.delta("net.bytes." + level.name)
                   for level in Level if level >= Level.REGION)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_level.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_level.values())

    def wide_area_bytes(self) -> int:
        """Bytes carried across region or world boundaries."""
        return sum(size for level, size in self.bytes_by_level.items()
                   if level >= Level.REGION)


class Network:
    """Delivers messages between hosts over the topology.

    The network does not know about ports or connections — that is the
    transport layer's job (:mod:`repro.sim.transport`).  It provides
    ``delay`` computation and a ``deliver`` primitive invoking a
    callback on the destination host after the computed delay, or never
    (drop) if a failure stands in the way.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 params: Optional[LinkParameters] = None, seed: int = 0):
        self.sim = sim
        self.topology = topology
        self.params = params or LinkParameters()
        self.meter = TrafficMeter()
        self.rng = random.Random(seed)
        self._down_hosts: set = set()
        self._partitioned: set = set()
        # The domain tree is immutable once hosts start talking, and
        # every message needs the separation of its endpoint sites —
        # memoise the LCA walk per site pair (id-keyed: Domains are
        # unique objects owned by the topology).
        self._separation_cache: Dict[tuple, Level] = {}
        # Partition membership per site — which partitioned domains
        # contain it — is equally walk-derived and changes only when
        # the partition set does, so it is memoised per (site,
        # partition-set) and invalidated wholesale on partition/heal
        # (rare control-plane events; the per-message check must not
        # re-walk ancestors() for every partitioned domain).
        self._partition_cache: Dict[int, frozenset] = {}
        #: burst telemetry: deliver_burst calls / messages they carried.
        self.burst_calls = 0
        self.burst_messages = 0

    # -- failure state -------------------------------------------------

    def set_host_down(self, host_name: str, down: bool = True) -> None:
        if down:
            self._down_hosts.add(host_name)
        else:
            self._down_hosts.discard(host_name)

    def host_is_down(self, host_name: str) -> bool:
        return host_name in self._down_hosts

    def partition_domain(self, domain: Domain) -> None:
        """Isolate ``domain``: traffic crossing its boundary is lost."""
        self._partitioned.add(domain)
        self._partition_cache.clear()

    def heal_domain(self, domain: Domain) -> None:
        self._partitioned.discard(domain)
        self._partition_cache.clear()

    def _partition_membership(self, site: Domain) -> frozenset:
        """The partitioned domains containing ``site`` (cached)."""
        key = id(site)
        membership = self._partition_cache.get(key)
        if membership is None:
            ancestors = set(site.ancestors())
            membership = frozenset(domain for domain in self._partitioned
                                   if domain in ancestors)
            self._partition_cache[key] = membership
        return membership

    def _crosses_partition(self, site_a: Domain, site_b: Domain) -> bool:
        # A message crosses a partition boundary iff some partitioned
        # domain contains exactly one endpoint — i.e. the endpoints'
        # partition memberships differ.  One cached set compare per
        # message instead of one ancestor walk per partitioned domain.
        if site_a is site_b:
            return False
        return (self._partition_membership(site_a)
                != self._partition_membership(site_b))

    # -- cost model ----------------------------------------------------

    def separation(self, site_a: Domain, site_b: Domain) -> Level:
        key = (id(site_a), id(site_b))
        level = self._separation_cache.get(key)
        if level is None:
            level = Topology.separation(site_a, site_b)
            self._separation_cache[key] = level
        return level

    def transfer_delay(self, site_a: Domain, site_b: Domain,
                       size: int) -> float:
        """One-way delay for a ``size``-byte message, incl. serialisation."""
        level = self.separation(site_a, site_b)
        delay = self.params.latency[level] + size / self.params.bandwidth[level]
        if self.params.jitter_fraction:
            delay *= 1.0 + self.rng.uniform(0, self.params.jitter_fraction)
        return delay

    # -- delivery ------------------------------------------------------

    def deliver(self, src_site: Domain, dst_site: Domain, dst_host: str,
                size: int, deliver_fn: Callable,
                reliable: bool = False,
                at: Optional[float] = None) -> bool:
        """Schedule ``deliver_fn`` after the computed delay.

        ``deliver_fn`` is installed directly as the arrival timer's
        callback, so it is invoked with one argument — the fired timer
        event, which callers ignore.  (Wrapping a zero-argument
        callable in a lambda here would cost an allocation and an
        extra call per message on the hottest path in the repo.)

        Returns ``True`` if the message was scheduled, ``False`` if it
        was dropped (destination down, partition, or random loss).
        Bytes are metered when the message is *sent*, matching how a
        real sender consumes upstream bandwidth even for lost traffic.

        ``at`` lets a caller that already computed the absolute
        arrival instant (via :meth:`transfer_delay` + FIFO pacing on a
        connection) schedule delivery at exactly that timestamp;
        otherwise an independent delay computation here — a second
        jitter draw, or even one float-rounding ULP — could reorder
        messages the caller carefully sequenced.
        """
        # Inline separation(): one dict probe per message in the common
        # (warm-cache) case.
        key = (id(src_site), id(dst_site))
        level = self._separation_cache.get(key)
        if level is None:
            level = Topology.separation(src_site, dst_site)
            self._separation_cache[key] = level
        self.meter.record(level, size)
        if dst_host in self._down_hosts:
            self.meter.record_drop()
            return False
        if self._partitioned and self._crosses_partition(src_site, dst_site):
            self.meter.record_drop()
            return False
        params = self.params
        loss = params.loss[level]
        if not reliable and loss > 0.0 and self.rng.random() < loss:
            self.meter.record_drop()
            return False
        if at is not None:
            timer = Timeout(self.sim, 0.0, at=at)
        else:
            # Inline transfer_delay: the level is already in hand.
            delay = params.latency[level] + size / params.bandwidth[level]
            if params.jitter_fraction:
                delay *= 1.0 + self.rng.uniform(0, params.jitter_fraction)
            timer = Timeout(self.sim, delay)
        timer.add_callback(deliver_fn)
        return True

    def deliver_burst(self, src_site: Domain, dst_site: Domain,
                      dst_host: str, messages) -> int:
        """Schedule a same-site-pair burst of datagrams under **one**
        kernel timer.

        ``messages`` is a sequence of ``(size, deliver_fn)`` pairs, in
        send order.  Semantically this is exactly ``n`` calls to
        :meth:`deliver`: every message is metered, checked against
        down-host / partition / loss individually, draws its loss and
        jitter randomness in the same order a scalar loop would, and
        arrives at the same ``(time, seq)`` position — the sequence
        numbers are reserved per surviving message in send order, so a
        pinning test comparing the two paths sees byte-identical
        arrival ordering.  The only difference is cost: the burst
        occupies one timer-heap slot (a :class:`BatchTimeout`) instead
        of n, and same-instant arrivals are consumed inline by one
        kernel event.

        Returns the number of messages scheduled (not dropped).
        """
        key = (id(src_site), id(dst_site))
        level = self._separation_cache.get(key)
        if level is None:
            level = Topology.separation(src_site, dst_site)
            self._separation_cache[key] = level
        meter = self.meter
        params = self.params
        rng = self.rng
        sim = self.sim
        loss = params.loss[level]
        latency = params.latency[level]
        bandwidth = params.bandwidth[level]
        jitter = params.jitter_fraction
        unreliable = loss > 0.0
        blocked = (dst_host in self._down_hosts
                   or (self._partitioned
                       and self._crosses_partition(src_site, dst_site)))
        now = sim.now
        entries = []
        for size, deliver_fn in messages:
            meter.record(level, size)
            if blocked:
                meter.record_drop()
                continue
            if unreliable and rng.random() < loss:
                meter.record_drop()
                continue
            delay = latency + size / bandwidth
            if jitter:
                delay *= 1.0 + rng.uniform(0, jitter)
            # `now + delay`: the instant a scalar `deliver` gets from
            # Timeout(delay).
            entries.append([now + delay, sim.reserve_seq(), deliver_fn])
        self.burst_calls += 1
        self.burst_messages += len(entries)
        # Varied sizes (or jitter) make arrival order differ from send
        # order; BatchTimeout wants (at, seq) order.  Seqs are unique,
        # so plain list comparison never reaches the callbacks.  An
        # empty batch arms no timer.
        entries.sort()
        BatchTimeout(sim, entries)
        return len(entries)
