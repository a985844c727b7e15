"""Pooled guard deadlines: many pending deadlines, one armed timer.

Every guarded operation in the repo — a UDP RPC attempt, a channel
call with a timeout, a TCP connect — used to arm its own kernel
:class:`~repro.sim.kernel.Timeout` and cancel it the moment the
guarded operation completed.  That is one heap push plus lazy-cancel
churn per call, per retry, per connect, on paths where the deadline
almost never fires.  This module replaces the per-call timers with
**deadline pools**: a :class:`DeadlinePool` tracks any number of
pending deadlines in a small internal ``(when, seq)`` heap but keeps
at most *one* timer armed in the kernel heap — re-armed only when the
earliest pending deadline changes.

Two kinds of owner share the one pool type:

* **One delay per pool** — each :class:`~repro.sim.rpc.UdpRpcClient`
  owns a pool and adds every attempt's guard with its single retry
  ``timeout``.  With one delay and monotonic simulation time a new
  deadline never undercuts the armed one, so the pool never shelves
  a timer and pops in arrival order: zero kernel heap traffic per
  call/retry in the steady state.
* **Mixed delays** — :meth:`RpcChannel.call(timeout=...)
  <repro.sim.rpc.RpcChannel.call>` and :meth:`Host.connect
  <repro.sim.transport.Host.connect>` guards share one pool per
  simulator (:func:`shared_pool`).

**Pooling is invisible to event ordering.**  Each ``add`` reserves a
global sequence number (:meth:`~repro.sim.kernel.Simulator
.reserve_seq`) at exactly the program point where the old code
created its per-call ``Timeout`` — so every other event in the run
draws exactly the sequence numbers it always did — and the pool arms
its kernel timer with ``timeout_at(when, seq=reserved)``, so an
expiry fires at exactly the ``(time, seq)`` position the dedicated
per-call timer would have occupied.  When several deadlines share one
instant, the pool expires exactly *one* entry per timer firing and
re-arms at the next entry's reserved ``(time, seq)``, preserving even
same-instant interleavings with unrelated events.  Trace-replay tests
pin byte-identical ``LoadStats`` against the per-call-timer
implementation (``tests/sim/test_deadlines.py``).

**Cancellation is lazy, like the kernel's.**  ``cancel`` marks the
entry dead in O(1); dead entries are discarded when they surface at
the head of the pool.  A timer armed for a since-cancelled deadline
is left to fire (firing is cheap and consumes no sequence numbers);
its firing discards the dead prefix and re-arms for the earliest live
deadline, so in the steady state of a fast RPC client the kernel arms
roughly one timer per *timeout interval*, not one per call.  Expiry
of a dead or already-answered waiter passes silently — the pre-defuse
discipline of the old per-call guards is preserved by the expiry
callbacks themselves (see :func:`repro.sim.rpc._expire_waiter`).

Telemetry follows the repo's pull-only discipline: plain-int counters
on the hot path.  ``bind_metrics`` exposes the entries armed and the
pool depth as function-backed instruments; the cancelled and expired
totals are plain attributes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from .kernel import SimulationError, Simulator, Timeout

__all__ = [
    "DeadlinePool",
    "shared_pool",
]


def _invoke(callback: Callable[[], None]) -> None:
    """Default expiry action: the payload is a zero-arg callback."""
    callback()


# A pending deadline is a plain 4-slot list — ``[when, seq, payload,
# dead]`` — mirroring the kernel's own heap-entry idiom: on the hot
# guarded-call path a list literal beats a class instantiation (no
# ``__init__`` frame), and callers only ever treat the entry as an
# opaque handle to pass back to :meth:`DeadlinePool.cancel`.
_WHEN, _SEQ, _PAYLOAD, _DEAD = range(4)


class DeadlinePool:
    """Many pending deadlines, one armed kernel timer.

    Entries carry arbitrary delays, so the pool orders them in its own
    ``(when, seq)`` heap; the kernel sees one *active* timer for the
    earliest deadline.  When a new deadline undercuts the active one,
    the superseded timer is not cancelled but **shelved** — left
    pending in the kernel heap at its reserved ``(time, seq)`` — and
    reclaimed verbatim if its deadline becomes the earliest again
    (cancelling would blank its heap slot in place, and a later
    re-arm at the same reserved position would collide with the
    blanked entry).  An orphaned shelved timer fires as a no-op.
    A pool whose owner always adds one delay never shelves.
    """

    __slots__ = ("sim", "_expire", "_reserve", "_timer", "_armed_when",
                 "_armed_seq", "_live", "_heap", "_shelf", "armed_total",
                 "cancelled_total", "expired_total", "timer_arms",
                 "timer_shelved")

    def __init__(self, sim: Simulator,
                 expire: Optional[Callable[[Any], None]] = None):
        self.sim = sim
        #: called with the entry payload when a live deadline expires.
        self._expire = expire if expire is not None else _invoke
        self._reserve = sim.reserve_seq  # bound once: one call per add
        self._timer: Optional[Timeout] = None
        self._live = 0
        self._heap: List[list] = []
        self._shelf: dict = {}  # reserved seq -> superseded armed Timeout
        self.armed_total = 0       # entries ever added
        self.cancelled_total = 0   # entries withdrawn before expiry
        self.expired_total = 0     # entries that fired
        self.timer_arms = 0        # kernel timers (re-)armed
        self.timer_shelved = 0     # armed timers superseded by an
        #                            earlier deadline

    def __len__(self) -> int:
        return len(self._heap)

    # -- accounting ----------------------------------------------------

    def bind_metrics(self, registry, prefix: str) -> None:
        """Expose the pool's plain-int accounting as function-backed
        instruments (the add/cancel hot path never touches one)."""
        registry.counter(prefix + ".armed", fn=lambda: self.armed_total)
        registry.gauge(prefix + ".depth", fn=lambda: self._live)

    # -- the client-facing O(1) add and cancel -------------------------

    def add(self, payload: Any, delay: float) -> list:
        """Register a deadline ``delay`` from now; returns the handle
        to :meth:`cancel`.  For the default pool-level expiry action,
        ``payload`` is a zero-arg callback."""
        if delay < 0:
            # Reject before touching any state: a stranded past-dated
            # entry would poison the (simulator-wide) pool and crash
            # the next firing.  Same surface as sim.timeout(delay).
            raise SimulationError("negative delay: %r" % (delay,))
        when = self.sim.now + delay
        entry = [when, self._reserve(), payload, False]
        heappush(self._heap, entry)
        self._live += 1
        self.armed_total += 1
        timer = self._timer
        if timer is None:
            self._arm(entry)
        elif when < self._armed_when:
            # The new deadline undercuts the armed one (a tie keeps
            # the armed timer: the new entry's reserved seq is
            # larger): shelve the superseded timer and arm the new
            # earliest — the only case where an add touches the
            # kernel heap.
            self._shelf[self._armed_seq] = timer
            self.timer_shelved += 1
            self._arm(entry)
        return entry

    def cancel(self, entry: list) -> bool:
        """Withdraw a pending deadline; True if it was still pending.

        O(1): the entry is only marked; the heap discards it when it
        surfaces.  Its payload is dropped at once, though: a guard
        holds its call's waiter and through it the reply, which must
        not live on until the deadline passes.  Cancelling an expired
        (or already cancelled) entry is a harmless no-op, mirroring
        :meth:`Timeout.cancel`.
        """
        if entry[_DEAD]:
            return False
        entry[_DEAD] = True
        entry[_PAYLOAD] = None
        self._live -= 1
        self.cancelled_total += 1
        return True

    # -- kernel timer management ---------------------------------------

    def _arm(self, entry: list) -> None:
        """Arm the kernel timer at the entry's reserved (time, seq),
        reclaiming a shelved timer created for exactly that
        deadline."""
        self._armed_when = entry[_WHEN]
        self._armed_seq = entry[_SEQ]
        timer = self._shelf.pop(entry[_SEQ], None)
        if timer is None:
            self.timer_arms += 1
            timer = self.sim.timeout_at(entry[_WHEN], seq=entry[_SEQ])
            timer.add_callback(self._on_fire)
        self._timer = timer

    def _on_fire(self, event) -> None:
        if event is not self._timer:
            # An orphaned shelved timer (its deadline passed while a
            # shorter one was armed and its pool entry died): drop it
            # from the shelf and ignore the firing.
            for seq, timer in self._shelf.items():
                if timer is event:
                    del self._shelf[seq]
                    break
            return
        self._timer = None
        heap = self._heap
        while heap and heap[0][_DEAD]:
            heappop(heap)
        if not heap:
            return
        head = heap[0]
        if head[_SEQ] == self._armed_seq:
            # The timer fired for the current live head: expire exactly
            # this one entry, then re-arm for the next — possibly at
            # the same instant, where the reserved seq slots the next
            # expiry into the run order exactly where its own timer
            # would have been.  The dead head is popped below.
            head[_DEAD] = True
            self._live -= 1
            self.expired_total += 1
            self._expire(head[_PAYLOAD])
            while heap and heap[0][_DEAD]:
                heappop(heap)
        if heap:
            self._arm(heap[0])


def shared_pool(sim: Simulator) -> DeadlinePool:
    """The simulator-wide mixed-deadline pool, created on first use.

    All mixed-delay guards in a world (channel call timeouts, connect
    guards) share one :class:`DeadlinePool`, so the whole simulator
    keeps a single armed guard timer for them.  The pool is stashed on
    the simulator instance; :class:`~repro.sim.world.World` binds its
    metrics as ``kernel.deadline_pool.*``.
    """
    pool = getattr(sim, "_shared_deadline_pool", None)
    if pool is None:
        pool = DeadlinePool(sim)
        sim._shared_deadline_pool = pool
    return pool
