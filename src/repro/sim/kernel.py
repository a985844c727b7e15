"""Discrete-event simulation kernel.

Everything in this reproduction runs on top of this kernel: hosts,
protocol daemons, replication subobjects, DNS servers, and clients are
all *processes* — Python generators that ``yield`` :class:`Event`
instances and are resumed when those events fire.

The design follows the classic process-interaction style (as in SimPy),
but is deliberately small and fully deterministic:

* Events fire in ``(time, sequence-number)`` order; two events scheduled
  for the same instant fire in the order they were scheduled.
* No wall-clock time or OS randomness is consulted anywhere.  All
  stochastic behaviour in higher layers draws from seeded
  ``random.Random`` instances owned by the simulation world.

Because every RPC, retry and lease in the reproduction runs through
this loop, the kernel is the hottest code in the repo and is tuned
accordingly:

* The scheduler is **two queues**: a FIFO *run queue*
  (:class:`collections.deque`) for events that fire at the current
  instant — every ``Event.succeed``/``fail``, ``Store.put`` hand-off
  and RPC completion (per-message transport hand-offs bypass it:
  :meth:`Store.put_inline`) — and a timer *heap* for events with a
  real delay.
  A zero-delay cascade costs an O(1) append/popleft per event instead
  of an O(log n) ``heappush``+``heappop`` against the timer heap.
  The two queues are merged by the global sequence number when a
  timer ties the current instant, so the documented ``(time, seq)``
  semantics are preserved exactly (see :class:`Simulator`).
* ``Event``/``Timeout``/``Process`` (and the ``Store``/``Resource``
  primitives) declare ``__slots__`` — no per-instance ``__dict__`` on
  the millions of short-lived objects a large run creates.
* ``Store`` and ``Resource`` keep their FIFO queues in
  :class:`collections.deque`, so serving a waiter is O(1) instead of
  the O(n) ``list.pop(0)``; a ``put`` with a parked getter hands the
  item straight to it (no queue round-trip).
* :class:`Singleflight` collapses concurrent requests for one key
  into one in-flight run (the GLS lookup cache's upstream lookups, a
  channel pool's handshakes).
* Telemetry is pull-only: the kernel keeps plain ``int`` counters
  (events processed, timers scheduled/cancelled) and
  :meth:`Simulator.bind_metrics` exposes them as function-backed
  instruments in a :class:`~repro.analysis.telemetry.MetricsRegistry`
  — the hot loop never touches an instrument object.
* Timers are **cancellable**: :meth:`Timeout.cancel` withdraws a
  pending timer using lazy heap invalidation — the heap entry is
  blanked in place (O(1)) and discarded when it surfaces, and the heap
  is compacted whenever blanked entries outnumber live ones.  Without
  this, every RPC that *succeeds* would strand its guard timer in the
  heap until its deadline passes, bloating ``heapq`` operations and
  forcing ``run()`` to grind through dead timers at the end of a run.
* Guard deadlines are **pooled** on top of this
  (:mod:`repro.sim.deadlines`): the RPC/transport layers track many
  pending deadlines under a single armed kernel timer, reserving a
  sequence number per logical deadline (:meth:`Simulator.reserve_seq`)
  so a pooled expiry fires at exactly the ``(time, seq)`` position a
  dedicated per-call :class:`Timeout` would have occupied.  The hot
  guarded-call path then costs no heap traffic at all.

Typical use::

    sim = Simulator()

    def ping(sim):
        yield sim.timeout(1.0)
        return "pong"

    proc = sim.process(ping(sim))
    sim.run()
    assert proc.value == "pong"
    assert sim.now == 1.0
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "BatchTimeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Store",
    "Resource",
    "Singleflight",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; at some point it is *triggered* either
    successfully (``succeed``) with a value, or with a failure
    (``fail``) carrying an exception.  Triggering schedules all
    registered callbacks to run at the current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # A failure that nobody waits on should not pass silently; the
        # simulator surfaces unhandled failures when it processes them.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (even if not yet processed)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        if not self._ok:
            raise self._value
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:  # inline `triggered` (hot path)
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if self._value is not _PENDING:  # inline `triggered` (hot path)
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs at the
        current simulation time (via a zero-delay bridge event), which
        keeps `yield already_fired_event` well-defined.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            bridge = Event(self.sim)
            bridge.add_callback(lambda _e: callback(self))
            if self._ok:
                bridge.succeed(self._value)
            else:
                self._defused = True
                bridge._defused = True
                bridge.fail(self._value)

    def defuse(self) -> None:
        """Mark a failure as handled so the simulator will not re-raise."""
        self._defused = True


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Unlike manually triggered events, a timeout stays *untriggered*
    until the simulator processes it (so composites like ``AnyOf`` see
    pending timers as pending); the stored value is attached when it
    fires.

    A pending timeout can be withdrawn with :meth:`cancel` — the idiom
    for guard timers (RPC deadlines, connect timeouts) that are no
    longer needed once the guarded operation completes.  A cancelled
    timeout never fires and never runs its callbacks.
    """

    __slots__ = ("delay", "_auto_value", "_entry")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 at: Optional[float] = None, seq: Optional[int] = None):
        """Fire ``delay`` from now — or, if ``at`` is given, at exactly
        that absolute instant (use :meth:`Simulator.timeout_at`).

        The ``at`` form exists for schedulers that must hit a
        previously computed timestamp *bit-for-bit*: re-deriving it as
        ``now + delay`` can land one float ULP away and invert the
        (time, sequence) order against another event at the "same"
        instant.

        ``seq`` (see :meth:`Simulator.reserve_seq`) lets a scheduler
        that pools many logical deadlines under few kernel timers fire
        this timer at a previously *reserved* position in the global
        ``(time, seq)`` order, as if it had been armed when the
        sequence number was drawn.
        """
        if at is None:
            if delay < 0:
                raise SimulationError("negative delay: %r" % (delay,))
            at = sim.now + delay
        else:
            delay = at - sim.now
            if delay < 0:
                raise SimulationError(
                    "cannot schedule at %r, before now" % (at,))
        super().__init__(sim)
        self.delay = delay
        self._auto_value = value
        self._entry = sim._enqueue_abs(self, at, seq)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")

    @property
    def cancelled(self) -> bool:
        return self._entry is None and not self.triggered

    def cancel(self) -> bool:
        """Withdraw a pending timer; returns True if it was withdrawn.

        Cancelling a timeout that already fired (or was already
        cancelled) is a harmless no-op returning False.
        """
        entry = self._entry
        if entry is None or self.triggered:
            return False
        self._entry = None
        self.sim._invalidate(entry)
        return True


class BatchTimeout:
    """One armed kernel timer delivering a whole batch of callbacks.

    The batch form of the deadline-pool idiom: a caller that must
    schedule *n* callbacks — a same-site-pair burst of datagram
    arrivals, typically — reserves one sequence number per callback
    (:meth:`Simulator.reserve_seq`, in scheduling order), sorts the
    ``[at, seq, callback]`` entries by ``(at, seq)``, and hands the
    whole batch here.  Only the head entry occupies the timer heap at
    any moment; each firing consumes every entry that shares the
    fired instant *inline* and re-arms once for the next instant.  A
    burst of n same-instant arrivals therefore costs one heap entry
    and one kernel event instead of n of each.

    Exactness contract: the reserved sequence numbers must form a
    **contiguous block** (no other sequence number may be drawn
    between the first and last reservation).  Then no foreign event
    can occupy a ``(time, seq)`` position strictly between two batch
    entries at the same instant, so consuming them inline back-to-back
    fires every callback at exactly the position a dedicated per-entry
    :class:`Timeout` would have given it.  Entries at later instants
    re-arm through :meth:`Simulator.timeout_at` with their reserved
    sequence number, which preserves their positions exactly.

    A head entry whose instant is *now* is admitted straight to the
    run queue (:meth:`Simulator._enqueue_reserved`) — the same-instant
    vector never touches the heap at all.

    Batch entries are not individually cancellable (network arrivals
    never are); cancel nothing or build per-entry :class:`Timeout`\\ s.
    """

    __slots__ = ("sim", "_entries", "_index")

    def __init__(self, sim: "Simulator", entries: list):
        """``entries``: a list of ``[at, seq, callback]`` lists sorted
        by ``(at, seq)``, with ``seq`` values reserved via
        :meth:`Simulator.reserve_seq` as one contiguous block and every
        ``at`` >= ``sim.now``."""
        self.sim = sim
        self._entries = entries
        self._index = 0
        if entries:
            self._arm()

    @property
    def pending(self) -> int:
        """Entries not yet fired."""
        return len(self._entries) - self._index

    def _arm(self) -> None:
        at, seq, _callback = self._entries[self._index]
        sim = self.sim
        if at <= sim.now:
            # Same-instant head: run-queue admission at the reserved
            # position — no heap traffic for an immediate batch.
            event = Event(sim)
            event._ok = True
            event._value = None
            event.add_callback(self._fire)
            sim._enqueue_reserved(seq, event)
        else:
            timer = Timeout(sim, 0.0, at=at, seq=seq)
            timer.add_callback(self._fire)

    def _fire(self, event: Event) -> None:
        # Consume the head entry, then every later entry sharing the
        # current instant (exact: the reserved block is contiguous, so
        # nothing can be scheduled between them), then re-arm once.
        entries = self._entries
        index = self._index
        now = self.sim.now
        count = len(entries)
        while index < count and entries[index][0] <= now:
            callback = entries[index][2]
            index += 1
            self._index = index
            callback(event)
        if index < count:
            self._arm()


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The generator must yield :class:`Event` instances.  When a yielded
    event succeeds, the process resumes with the event's value; when it
    fails, the exception is thrown into the generator.  The process
    event itself succeeds with the generator's return value, or fails
    with its uncaught exception.

    Lifecycle in kernel events: :meth:`Simulator.process` starts with
    one run-queue event, :meth:`Simulator.start` with none; each resume
    is the awaited event firing.  Returned or killed with nobody
    waiting (no callbacks), a process is processed at once — never
    enqueued, no sequence number; a later ``yield`` of it resumes via
    :meth:`Event.add_callback`'s bridge.  One that raises always fires,
    so failures surface.  A host's process leaves its host's set
    (``_owner``) as it ends.
    """

    __slots__ = ("_generator", "_waiting_on", "_owner")

    def __init__(self, sim: "Simulator", generator: Generator,
                 target: Optional[Event] = None):
        """``target`` (see :meth:`Simulator.start`) is the event a
        generator the caller already started has just yielded: the
        process waits on it instead of kicking the generator off."""
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator")
        self._generator = generator
        self._owner: Optional[dict] = None
        self._waiting_on: Optional[Event] = target
        if target is None:
            # Kick off at the current instant.
            target = Event(sim)
            target.succeed()
        elif not isinstance(target, Event):
            raise SimulationError(
                "process yielded %r, expected an Event" % (target,))
        target.add_callback(self._resume)

    @property
    def alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process twice before it handles the first interrupt is allowed
        (both are delivered in order).
        """
        if not self.alive:
            raise SimulationError("cannot interrupt a finished process")
        bridge = Event(self.sim)
        bridge._defused = True
        bridge.add_callback(self._deliver_interrupt)
        bridge.fail(Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process immediately without resuming it.

        Used by failure injection (host crashes): the generator is
        closed, pending waits are abandoned, and the process ends with
        ``None`` so waiters are released (silently if there are none).

        Killing the process that is *executing* — a daemon crashing
        its own host, or a receiver it resumed inline
        (:meth:`Store.put_inline`) closing the channel it pumps — is
        well defined too: the process is dead from this call on, but
        a running generator cannot be closed (CPython raises
        ``ValueError: generator already executing``), so
        :meth:`_step` closes it when the current step returns.
        Whatever that step still yields, returns or raises is dropped
        and nothing after the kill point is ever resumed.
        """
        if not self.alive:
            return
        self._abandon_wait()
        if not self._generator.gi_running:
            self._generator.close()
        self._end(True, None)

    def _end(self, ok: bool, value: Any) -> None:
        """Leave the owner's set; fire only if failed or waited on."""
        if self._owner is not None:
            self._owner.pop(self, None)
            self._owner = None
        if not ok:
            self.fail(value)
        elif self.callbacks:
            self.succeed(value)
        else:
            self._ok = True
            self._value = value
            self.callbacks = None

    def _abandon_wait(self) -> None:
        """Stop watching the awaited event; reap a now-orphaned timer."""
        waiting = self._waiting_on
        if waiting is not None and waiting.callbacks is not None:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:
                pass
            # A timer nobody watches any more (the common case when a
            # host crash kills a sleeping daemon) would sit in the heap
            # until its deadline; withdraw it instead.
            if not waiting.callbacks and type(waiting) is Timeout:
                waiting.cancel()
        self._waiting_on = None

    def _deliver_interrupt(self, bridge: Event) -> None:
        if not self.alive:
            return
        self._abandon_wait()
        self._step(bridge)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self._step(event)

    def _step(self, event: Event) -> None:
        if self._value is not _PENDING:  # inline `triggered` (hot path)
            return
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            if self._value is _PENDING:
                self._end(True, stop.value)
            return
        except BaseException as exc:
            if self._value is _PENDING:
                self._end(False, exc)
            elif not isinstance(exc, Exception):
                raise
            return
        if self._value is not _PENDING:
            # Killed during this very step (see kill()): the generator
            # is suspended again, so it can be closed now.
            self._generator.close()
            if type(target) is Timeout and not target.callbacks:
                target.cancel()  # armed after the kill, watched by nobody
            return
        if not isinstance(target, Event):
            error = SimulationError(
                "process yielded %r, expected an Event" % (target,))
            self._generator.close()
            self._end(False, error)
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("_events", "_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._fired = 0
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("events belong to different simulators")
            event.add_callback(self._on_fire)
        if not self._events:
            self.succeed({})

    def _done(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        self._fired += 1
        if not event._ok:
            # A child failure that was already defused (e.g. a teardown
            # notification to a possibly-dead waiter) stays defused
            # through the composite, so orphaned composites don't crash
            # the simulator; live waiters still receive the exception.
            already_handled = event._defused
            event._defused = True
            self.fail(event._value)
            if already_handled:
                self._defused = True
            return
        if self._done():
            results = {
                ev: ev._value for ev in self._events
                if ev.triggered and ev._ok
            }
            self.succeed(results)


class AnyOf(_Condition):
    """Fires when the first of ``events`` fires."""

    __slots__ = ()

    def _done(self) -> bool:
        return self._fired >= 1


class AllOf(_Condition):
    """Fires when all of ``events`` have fired."""

    __slots__ = ()

    def _done(self) -> bool:
        return self._fired >= len(self._events)


class Store:
    """An unbounded FIFO queue connecting producer and consumer processes.

    ``put`` never blocks; ``get`` returns an event that fires when an
    item is available.  Items are delivered in FIFO order to getters in
    FIFO order, which keeps message channels deterministic.  Both
    queues are deques, so a put/get pair is O(1) however deep the
    backlog grows, and the hand-off is direct: a ``put`` with a parked
    getter succeeds that getter immediately (no re-dispatch loop), a
    ``get`` against a backlog takes the head item straight away.  At
    most one queue is non-empty at any time.
    """

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._value is _PENDING:  # inline `triggered` (hot)
                getter.succeed(item)
                return
        self._items.append(item)

    def put_inline(self, item: Any) -> None:
        """Hand ``item`` to a parked getter with **no kernel event**.

        Same FIFO semantics as :meth:`put`, but when a getter is
        parked its callbacks run immediately inside the caller's frame
        instead of through a run-queue event.  This is the per-message
        hand-off of both transports — a network-arrival timer
        delivering into a ``UdpSocket`` inbox or a connection's
        :class:`~repro.sim.transport.Inbox` (a TLS record layer
        verifies in between): ``put`` charged one run-queue
        event per message only to resume the waiter at the very next
        scheduler step; firing it during the arrival callback keeps the
        observable resume instant (and the waiter's own downstream
        sends, and therefore every send-time RNG draw) at the same
        simulated time while dropping the event entirely.

        **Re-entrancy rule.**  The consumer's continuation runs
        *under* the producer's frame, so resumption must flow one way,
        away from the kernel callback that started it: arrival timer →
        receiver → whatever the receiver runs before
        it next yields.  That continuation may do anything a process
        may do — send, reply, close channels, crash hosts — including
        killing a process whose frame it runs under
        (:meth:`Process.kill` defers closing a running generator).
        What it must never do is cause such a process to be *resumed*:
        a running generator cannot be re-entered.  Hence only
        producers that are kernel callbacks, or were resumed by one
        and resume nothing upstream of themselves, use this; anything
        triggered from an arbitrary frame (an end of stream from
        ``close()``, a reply waiter, a general producer process) keeps
        ``put``/``succeed`` and goes through the run queue.  A get
        against the backlog, and a ``put_inline`` with no parked
        getter, behave exactly like :meth:`put`/:meth:`get`.
        """
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._value is _PENDING:
                # The kernel's processing body, minus the enqueue (and
                # minus the event count: nothing was scheduled).
                getter._ok = True
                getter._value = item
                callbacks = getter.callbacks
                getter.callbacks = None
                for callback in callbacks:
                    callback(getter)
                return
        self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class Resource:
    """A counting semaphore for modelling limited server concurrency.

    ``acquire`` returns an event that fires when a slot is free;
    ``release`` frees a slot.  Waiters are served FIFO (from a deque,
    so deep queues — a saturated server — stay O(1) per hand-off).
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    def acquire(self) -> Event:
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without acquire()")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue
            waiter.succeed()
            return
        self._in_use -= 1


class Singleflight:
    """Concurrent requests for one key share one in-flight run.

    The first caller for a key becomes its *leader* and runs the work
    in its own frame (``yield from``, no process of its own); callers
    arriving while it runs become *followers* and park on pre-defused
    events the leader fires with its outcome — its value for all of
    them, or the exception it raised::

        waiter = flights.follow(key)
        if waiter is not None:
            value = yield waiter                # a follower
        else:
            value = yield from flights.lead(key, work())

    A follower whose process died meanwhile (a host crash) is passed
    over silently: its waiter is pre-defused.  A leader killed
    mid-flight unwinds with ``GeneratorExit``, which must never reach
    a follower's generator; its followers are released with the
    ``abandoned`` exception instead, and the key is free again.
    Followers resume in the order they parked.  :attr:`inflight` (keys
    whose leader runs) and :attr:`parked` (followers waiting) are plain
    counts, for gauges and for "drained back to zero" checks.
    """

    __slots__ = ("sim", "abandoned", "parked", "_followers")

    def __init__(self, sim: "Simulator", abandoned: type):
        self.sim = sim
        #: Exception class raised in the followers of a killed leader.
        self.abandoned = abandoned
        self.parked = 0
        self._followers: dict = {}  # key -> parked waiter Events

    @property
    def inflight(self) -> int:
        return len(self._followers)

    def __contains__(self, key) -> bool:
        return key in self._followers

    def waiting(self, key) -> int:
        """Followers parked on ``key``'s leader (0 if none runs)."""
        return len(self._followers.get(key, ()))

    def follow(self, key) -> Optional[Event]:
        """Park on ``key``'s running leader: the waiter to ``yield``,
        or ``None`` if no leader runs (the caller should lead)."""
        followers = self._followers.get(key)
        if followers is None:
            return None
        waiter = Event(self.sim)
        waiter._defused = True
        followers.append(waiter)
        self.parked += 1
        return waiter

    def lead(self, key, work: Generator) -> Generator[Event, Any, Any]:
        """Run ``work`` in the caller's frame as ``key``'s leader and
        fan its value, or the exception it raised, out to every
        follower that parked meanwhile."""
        followers: list = []
        self._followers[key] = followers
        try:
            value = yield from work
        except BaseException as exc:
            del self._followers[key]
            self.parked -= len(followers)
            failure = (exc if isinstance(exc, Exception) else
                       self.abandoned("the leader for %r was abandoned"
                                      % (key,)))
            for waiter in followers:
                waiter.fail(failure)
            raise
        del self._followers[key]
        self.parked -= len(followers)
        for waiter in followers:
            waiter.succeed(value)
        return value


class Simulator:
    """The event loop: a run queue of same-instant events + a timer heap.

    **Two queues, one ordering.**  Triggered events (``succeed`` /
    ``fail`` — everything that fires *now*) go to a FIFO run queue of
    ``(seq, event)`` tuples; :class:`Timeout`\\ s go to a heap of
    ``[time, seq, event]`` entries.  Both draw sequence numbers from
    one global counter, and the scheduler always fires the event with
    the smallest ``(time, seq)`` pair across both queues: run-queue
    entries carry the instant they were enqueued at (which is always
    the current ``now`` — the clock cannot advance past a pending
    run-queue event), so a timer that ties the current instant is
    merged in by comparing sequence numbers.  Two events scheduled for
    the same instant therefore fire in the order they were scheduled,
    exactly as with the previous single-heap scheduler — but a
    zero-delay cascade costs O(1) per event instead of O(log n).

    Heap entries are mutable lists so that a cancelled timer can be
    invalidated *in place* (the event slot is blanked to ``None``)
    without the O(n) cost of removing it from the middle of the heap.
    Blanked entries are discarded when they reach the top; when they
    outnumber live entries the whole heap is compacted in one O(n)
    pass, keeping the amortised cost of a cancellation O(1).  Run-queue
    entries are never cancelled (only pending timers are), so the run
    queue needs no invalidation machinery.  Compaction replaces the
    heap list, so the execution loops re-read ``self._heap`` every
    iteration; the run queue is only ever mutated in place.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._ready: deque = deque()
        self._sequence = itertools.count()
        self._event_count = 0
        self._stale = 0
        self._timers_scheduled = 0
        self._timers_cancelled = 0
        self.peak_heap_size = 0
        self.peak_ready_size = 0

    # -- scheduling ---------------------------------------------------

    def _enqueue(self, event: Event) -> None:
        # The zero-delay fast path: every succeed()/fail() lands here.
        ready = self._ready
        ready.append((next(self._sequence), event))
        if len(ready) > self.peak_ready_size:
            self.peak_ready_size = len(ready)

    def _enqueue_abs(self, event: Event, when: float,
                     seq: Optional[int] = None) -> list:
        # All Timeouts come through here; triggered events via _enqueue.
        self._timers_scheduled += 1
        entry = [when, next(self._sequence) if seq is None else seq, event]
        heappush(self._heap, entry)
        if len(self._heap) > self.peak_heap_size:
            self.peak_heap_size = len(self._heap)
        return entry

    def _enqueue_reserved(self, seq: int, event: Event) -> None:
        """Admit a pre-triggered event to the run queue at a *reserved*
        sequence position (:meth:`reserve_seq`).

        The run queue is kept in ascending sequence order by
        construction (every ``_enqueue`` draws a fresh, larger
        number), so a reserved admission is only legal while the
        reserved number is still newer than everything queued — i.e.
        immediately after reserving, before any other event is
        enqueued.  :class:`BatchTimeout` uses this to land a
        same-instant batch head in the run queue without touching the
        timer heap.  ``event`` must already carry its outcome
        (``_ok``/``_value`` set); it is processed like any triggered
        event.
        """
        ready = self._ready
        if ready and ready[-1][0] >= seq:
            raise SimulationError(
                "reserved seq %d is older than the run-queue tail" % seq)
        ready.append((seq, event))
        if len(ready) > self.peak_ready_size:
            self.peak_ready_size = len(ready)

    def reserve_seq(self) -> int:
        """Draw the next global sequence number without scheduling.

        For deadline-pooling schedulers (:mod:`repro.sim.deadlines`):
        a pool reserves a sequence number per logical deadline at the
        instant the deadline is created, then arms *one* kernel timer
        at a time via ``timeout_at(when, seq=reserved)``.  Each pooled
        expiry therefore fires at exactly the ``(time, seq)`` position
        a dedicated per-deadline :class:`Timeout` would have occupied,
        so pooling is invisible to event ordering.  A reserved number
        must be used at most once, and only for an instant that has
        not already been passed in ``(time, seq)`` order.
        """
        return next(self._sequence)

    def _invalidate(self, entry: list) -> None:
        """Lazy removal: blank the entry; compact when mostly garbage."""
        entry[2] = None
        self._timers_cancelled += 1
        self._stale += 1
        if self._stale * 2 >= len(self._heap):
            self._heap = [e for e in self._heap if e[2] is not None]
            heapify(self._heap)
            self._stale = 0

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None,
                   seq: Optional[int] = None) -> Timeout:
        """An event firing at the absolute instant ``when`` (>= now).

        Unlike ``timeout(when - now)``, the heap entry carries ``when``
        verbatim, so two schedulers that agree on a timestamp are
        ordered purely by scheduling sequence — no float-rounding
        inversions.  ``seq`` optionally fires the timer at a reserved
        position in the global order (:meth:`reserve_seq`).
        """
        return Timeout(self, 0.0, value, at=when, seq=seq)

    def event(self) -> Event:
        """A fresh untriggered event (trigger it manually)."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator)

    def start(self, generator: Generator) -> Optional[Process]:
        """Run ``generator`` in the caller's frame up to its first
        ``yield``; the process continuing it from there, or ``None`` if
        it finished without waiting.  No start event: for work nobody
        waits on (a request served or issued), only its waits cost.
        What it raises before its first ``yield`` reaches the caller."""
        try:
            target = next(generator)
        except StopIteration:
            return None
        return Process(self, generator, target)

    def store(self) -> Store:
        return Store(self)

    def resource(self, capacity: int = 1) -> Resource:
        return Resource(self, capacity)

    # -- telemetry ----------------------------------------------------

    def bind_metrics(self, registry, prefix: str = "kernel") -> None:
        """Expose the kernel's plain-int counters as registry
        instruments (function-backed: the event loop itself pays
        nothing; the registry reads these only at snapshot time).
        ``registry`` is a :class:`~repro.analysis.telemetry
        .MetricsRegistry`; duck-typed so the kernel stays import-free.
        """
        registry.counter(prefix + ".events_processed",
                         fn=lambda: self._event_count)
        registry.counter(prefix + ".timers_scheduled",
                         fn=lambda: self._timers_scheduled)
        registry.counter(prefix + ".timers_cancelled",
                         fn=lambda: self._timers_cancelled)
        registry.gauge(prefix + ".heap_size", fn=lambda: self.heap_size)
        registry.gauge(prefix + ".stale_timers", fn=lambda: self._stale)
        registry.gauge(prefix + ".peak_heap_size",
                       fn=lambda: self.peak_heap_size)
        registry.gauge(prefix + ".ready_size", fn=lambda: self.ready_size)
        registry.gauge(prefix + ".peak_ready_size",
                       fn=lambda: self.peak_ready_size)

    # -- execution ----------------------------------------------------

    @property
    def events_processed(self) -> int:
        return self._event_count

    @property
    def timers_scheduled(self) -> int:
        """Timeouts ever armed (the timer-churn numerator)."""
        return self._timers_scheduled

    @property
    def stale_timer_count(self) -> int:
        """Cancelled-but-not-yet-discarded entries still in the heap."""
        return self._stale

    @property
    def heap_size(self) -> int:
        """Live (non-cancelled) entries currently in the timer heap."""
        return len(self._heap) - self._stale

    @property
    def ready_size(self) -> int:
        """Same-instant events currently waiting in the run queue."""
        return len(self._ready)

    def _discard_stale_head(self) -> None:
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._stale -= 1

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none are scheduled."""
        if self._ready:
            # Run-queue events always fire at the current instant.
            return self.now
        self._discard_stale_head()
        return self._heap[0][0] if self._heap else float("inf")

    # The event-processing body is deliberately duplicated inline in
    # step() / run() / run_until_complete(): this is the hottest code
    # in the repo and a shared helper would cost a Python call per
    # event.  Keep the three copies textually identical.

    def step(self) -> None:
        """Process exactly one event (skipping cancelled timers).

        Raises ``IndexError`` when nothing is scheduled at all, as the
        single-heap scheduler did.
        """
        ready = self._ready
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._stale -= 1
        if ready:
            head = heap[0] if heap else None
            # A timer that ties the current instant fires first only
            # if it was scheduled first (smaller sequence number).
            if head is not None and head[0] <= self.now \
                    and head[1] < ready[0][0]:
                heappop(heap)
                event = head[2]
            else:
                event = ready.popleft()[1]
        else:
            when, _seq, event = heappop(heap)
            self.now = when
        if event._value is _PENDING:  # self-triggering event (Timeout)
            event._ok = True
            event._value = event._auto_value
            event._entry = None
        callbacks = event.callbacks
        event.callbacks = None
        self._event_count += 1
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues are empty or ``sim.now`` would pass
        ``until``.

        When stopped by ``until`` the clock is advanced exactly to it,
        so follow-up ``run`` calls observe a consistent timeline.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run backwards in time")
        ready = self._ready
        # Re-read self._heap each iteration: cancellation may compact
        # it (replacing the list) from inside an event callback.  The
        # run queue is mutated in place only, so the local is safe.
        while True:
            heap = self._heap
            head = heap[0] if heap else None
            if head is not None and head[2] is None:
                heappop(heap)
                self._stale -= 1
                continue
            if ready:
                if head is not None and head[0] <= self.now \
                        and head[1] < ready[0][0]:
                    heappop(heap)
                    event = head[2]
                else:
                    event = ready.popleft()[1]
            elif head is not None:
                if until is not None and head[0] > until:
                    self.now = until
                    return
                heappop(heap)
                self.now = head[0]
                event = head[2]
            else:
                break
            if event._value is _PENDING:  # self-triggering (Timeout)
                event._ok = True
                event._value = event._auto_value
                event._entry = None
            callbacks = event.callbacks
            event.callbacks = None
            self._event_count += 1
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
        if until is not None:
            self.now = until

    def run_until_complete(self, process: Process,
                           limit: float = float("inf")) -> Any:
        """Run until ``process`` finishes and return its value.

        ``limit`` guards against deadlocked protocols in tests: if the
        event queues drain or time passes ``limit`` first, a
        :class:`SimulationError` is raised.
        """
        ready = self._ready
        # `process._value is _PENDING` inlines `not process.triggered`:
        # this check runs once per processed event.
        while process._value is _PENDING:
            heap = self._heap
            head = heap[0] if heap else None
            if head is not None and head[2] is None:
                heappop(heap)
                self._stale -= 1
                continue
            if ready and self.now <= limit:
                if head is not None and head[0] <= self.now \
                        and head[1] < ready[0][0]:
                    heappop(heap)
                    event = head[2]
                else:
                    event = ready.popleft()[1]
            elif head is not None and head[0] <= limit:
                heappop(heap)
                self.now = head[0]
                event = head[2]
            else:
                raise SimulationError(
                    "process did not complete (deadlock or time limit)")
            if event._value is _PENDING:  # self-triggering (Timeout)
                event._ok = True
                event._value = event._auto_value
                event._entry = None
            callbacks = event.callbacks
            event.callbacks = None
            self._event_count += 1
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
        return process.value
