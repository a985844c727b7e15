"""Scripted message fates for replication tests.

A replication protocol must not assume its messages arrive, arrive
once or arrive in order.  :class:`Fates` decides, by send order, what
becomes of each message in one stream — lost, held back long enough
for what follows to overtake it, or delivered twice — so a
``hypothesis`` strategy can generate the schedule and a failure
shrinks to the few messages that matter.  Two adapters apply it: to
the datagrams between two sites (:class:`DatagramMeddler`) and to the
``state_push`` messages a master sends (:class:`PushMeddler`).
"""

import random

LOST = "lost"
LATE = "late"
DOUBLED = "doubled"
ON_TIME = "on time"


class Fates:
    """The fate of the ``index``-th message: in ``doomed`` it is lost,
    in ``late`` it is held back ``delay`` seconds, in ``doubled`` it
    is delivered twice.  :meth:`stop` lets everything through."""

    def __init__(self, doomed=(), late=(), doubled=(), delay=1.0):
        self.doomed = set(doomed)
        self.late = set(late)
        self.doubled = set(doubled)
        self.delay = delay
        self.sent = 0

    def next(self):
        index, self.sent = self.sent, self.sent + 1
        if index in self.doomed:
            return LOST
        if index in self.late:
            return LATE
        if index in self.doubled:
            return DOUBLED
        return ON_TIME

    def stop(self):
        self.doomed = self.late = self.doubled = ()


class DatagramMeddler(Fates):
    """Applies fates to whatever ``network`` carries to or from
    ``site``, in either direction; everything else arrives."""

    def __init__(self, network, site, doomed=(), late=(), doubled=(),
                 delay=1.0):
        super().__init__(doomed, late, doubled, delay)
        self.network = network
        self.site = site
        self.deliver = network.deliver
        network.deliver = self

    def __call__(self, src_site, dst_site, dst_host, size, deliver_fn,
                 **options):
        if src_site is self.site or dst_site is self.site:
            fate = self.next()
            if fate is LOST:
                self.network.meter.record_drop()
                return False
            if fate is LATE:
                return self._hold(src_site, dst_site, dst_host, size,
                                  deliver_fn, **options)
            if fate is DOUBLED:
                self.deliver(src_site, dst_site, dst_host, size, deliver_fn,
                             **options)
        return self.deliver(src_site, dst_site, dst_host, size, deliver_fn,
                            **options)

    def _hold(self, src_site, dst_site, dst_host, size, deliver_fn,
              reliable=False, at=None):
        """Deliver ``delay`` seconds after the network would: at
        ``now + (transit + delay)``, drawing what ``deliver`` draws (a
        loss draw, then a jitter draw), in that order.  A message a
        connection paces (``at``) arrives as paced."""
        if at is not None:
            return self.deliver(src_site, dst_site, dst_host, size,
                                deliver_fn, reliable=reliable, at=at)
        network = self.network
        params = network.params
        level = network.separation(src_site, dst_site)
        # The transit delay from a copy of the network's RNG: deliver's
        # loss draw, then its jitter draw.
        copy = random.Random()
        copy.setstate(network.rng.getstate())
        if not reliable and params.loss[level] > 0.0:
            copy.random()
        transit = params.latency[level] + size / params.bandwidth[level]
        if params.jitter_fraction:
            transit *= 1.0 + copy.uniform(0, params.jitter_fraction)
        sent = self.deliver(src_site, dst_site, dst_host, size, deliver_fn,
                            reliable=reliable,
                            at=network.sim.now + (transit + self.delay))
        if sent and params.jitter_fraction:
            # The jitter draw deliver skips when it is handed ``at``.
            network.rng.uniform(0, params.jitter_fraction)
        return sent


class PushMeddler(Fates):
    """Applies fates to the ``state_push`` messages the replication
    subobject ``master`` sends; its other messages go through."""

    def __init__(self, master, doomed=(), late=(), doubled=(), delay=1.0):
        super().__init__(doomed, late, doubled, delay)
        self.send = master._send
        self.host = master.lr.host
        master._send = self._meddle

    def _meddle(self, address, message):
        if message.get("type") != "state_push":
            return (yield from self.send(address, message))
        fate = self.next()
        if fate is LOST:
            return {"type": "ack"}
        if fate is LATE:
            yield self.host.sim.timeout(self.delay)
        elif fate is DOUBLED:
            self.host.spawn(self._send_quietly(address, message))
        return (yield from self.send(address, message))

    def _send_quietly(self, address, message):
        try:
            yield from self.send(address, message)
        except Exception:  # noqa: BLE001 - as the master's own push does
            pass
