"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import AnyOf, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.5)
        return "done"

    process = sim.process(proc())
    sim.run()
    assert sim.now == 2.5
    assert process.value == "done"


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(1.0)
        return value

    process = sim.process(proc())
    sim.run()
    assert process.value is None  # a timer fires with None


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(waiter(tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_run_until_limits_clock():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(1.0)

    sim.process(ticker())
    sim.run(until=5.5)
    assert sim.now == 5.5


def test_run_backwards_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_manual_event_succeed():
    sim = Simulator()
    gate = sim.event()
    results = []

    def waiter():
        value = yield gate
        results.append(value)

    def opener():
        yield sim.timeout(1.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert results == ["open"]


def test_event_failure_propagates_into_process():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            return "caught %s" % exc

    process = sim.process(waiter())
    gate.fail(ValueError("boom"))
    sim.run()
    assert process.value == "caught boom"


def test_unhandled_process_failure_raises_from_run():
    sim = Simulator()

    def broken():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(broken())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_yield_already_triggered_event():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")

    def proc():
        value = yield event
        return value

    process = sim.process(proc())
    sim.run()
    assert process.value == "early"


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    process = sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()
    assert process.triggered
    with pytest.raises(SimulationError):
        process.value


def test_process_return_value_chains():
    sim = Simulator()

    def inner():
        yield sim.timeout(1.0)
        return 7

    def outer():
        value = yield sim.process(inner())
        return value * 2

    process = sim.process(outer())
    sim.run()
    assert process.value == 14


def test_kill_releases_waiters():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)
        return "never"

    victim = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        victim.kill()

    def waiter():
        value = yield victim
        return ("victim finished", value, sim.now)

    watcher = sim.process(waiter())
    sim.process(killer())
    sim.run()
    # The watcher is released at kill time; the victim's abandoned
    # timer is reaped (nobody else watches it), so the run ends at
    # the kill, not at the timer's t=100 deadline.
    assert watcher.value == ("victim finished", None, 1.0)
    assert not victim.alive
    assert sim.now == 1.0


def test_kill_of_the_executing_process_is_well_defined():
    # Regression: kill() on the process that is executing (here it
    # kills itself; a daemon crashing its own host does the same)
    # called close() on a running generator and escaped as CPython's
    # "ValueError: generator already executing", ending the run.
    sim = Simulator()
    trail = []

    def suicidal():
        try:
            yield sim.timeout(1.0)
            me.kill()
            assert not me.alive          # dead at once...
            trail.append("rest of the step")
            yield sim.timeout(50.0)      # ...and never resumed here
            trail.append("resumed after the kill")
        finally:
            trail.append(("closed", sim.now))

    def waiter():
        value = yield me
        return (value, sim.now)

    me = sim.process(suicidal())
    watcher = sim.process(waiter())
    sim.run()
    assert trail == ["rest of the step", ("closed", 1.0)]
    assert watcher.value == (None, 1.0)
    # The timer armed after the kill was withdrawn, not left to expire.
    assert sim.now == 1.0 and sim.heap_size == 0


@pytest.mark.parametrize("ending", ["returns", "raises"])
def test_outcome_of_a_step_that_killed_its_process_is_dropped(ending):
    sim = Simulator()

    def suicidal():
        yield sim.timeout(1.0)
        me.kill()
        if ending == "raises":
            raise RuntimeError("raised by a process already dead")
        return "returned by a process already dead"

    me = sim.process(suicidal())
    sim.run()                            # neither re-triggers nor raises
    assert me.value is None


def test_kill_from_a_continuation_resumed_inline_under_the_victim():
    # The shape inline hand-off creates: a pump hands an item over in
    # its own frame (Store.put_inline), the consumer resumes *under*
    # the pump and tears the pump down.
    sim = Simulator()
    store = sim.store()
    trail = []

    def consumer():
        value = yield store.get()
        pump.kill()
        trail.append(("consumed", value, sim.events_processed))
        yield sim.timeout(1.0)
        return "consumer finished"

    def pumping():
        yield sim.timeout(1.0)
        before = sim.events_processed
        store.put_inline("payload")
        trail.append(("pump frame continues", sim.events_processed - before))
        yield sim.timeout(10.0)
        trail.append("pump resumed after the kill")

    reader = sim.process(consumer())
    pump = sim.process(pumping())
    sim.run()
    # The consumer ran inside the pump's step: no kernel event between
    # the hand-off and its continuation.
    assert trail == [("consumed", "payload", 3),
                     ("pump frame continues", 0)]
    assert reader.value == "consumer finished"
    assert not pump.alive and sim.now == 2.0


def test_adopted_generator_continues_from_the_event_it_yielded():
    sim = Simulator()
    trail = []

    def work():
        trail.append(("started", sim.events_processed))
        yield sim.timeout(2.0)
        trail.append(("woke", sim.now))
        return "done"

    process = sim.start(work())          # runs here, up to its yield
    assert trail == [("started", 0)]
    sim.run()
    assert trail == [("started", 0), ("woke", 2.0)]
    assert process.value == "done"
    # The timer alone: no start event, and an end nobody waits on is
    # silent.
    assert sim.events_processed == 1

    def yields_garbage():
        yield "not an event"

    with pytest.raises(SimulationError):
        sim.start(yields_garbage())


def test_start_of_a_generator_that_never_yields_makes_no_process():
    sim = Simulator()
    trail = []

    def answers_at_once():
        trail.append(sim.now)
        return "answered"
        yield  # pragma: no cover - a generator function that never waits

    assert sim.start(answers_at_once()) is None
    assert trail == [0.0]
    assert (sim.ready_size, sim.heap_size, sim.events_processed) == (0, 0, 0)


def test_a_finished_process_nobody_waits_on_costs_no_event():
    sim = Simulator()

    def work():
        yield sim.timeout(1.0)
        return "done"

    def sleeper():
        yield sim.timeout(50.0)

    finished = sim.process(work())
    sim.run()
    assert finished.callbacks is None and finished.value == "done"
    assert sim.events_processed == 2     # its start and its timer

    victim = sim.start(sleeper())
    seq = sim.reserve_seq()
    victim.kill()
    # Not enqueued, and no sequence number drawn for the end.
    assert sim.reserve_seq() == seq + 1
    assert victim.callbacks is None and victim.value is None
    assert sim.ready_size == 0 and sim.heap_size == 0
    sim.run()
    assert sim.events_processed == 2 and sim.now == 1.0


def test_waiting_on_a_process_that_ended_silently_resumes_via_the_bridge():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "early"

    ended = sim.process(quick())
    sim.run()
    assert ended.callbacks is None               # ended with nobody waiting

    def waiter():
        value = yield ended
        first = yield AnyOf(sim, [ended, sim.timeout(5.0)])
        return value, list(first.values()), sim.now

    process = sim.process(waiter())
    sim.run()
    assert process.value == ("early", ["early"], 1.0)


def test_a_process_that_raises_surfaces_though_nobody_waits_on_it():
    sim = Simulator()

    def broken():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    process = sim.start(broken())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()
    with pytest.raises(RuntimeError):
        process.value
    assert sim.events_processed == 2     # the timer and the failure


def test_anyof_fires_on_first():
    sim = Simulator()

    def racer():
        fast = sim.timeout(1.0)
        slow = sim.timeout(5.0)
        results = yield AnyOf(sim, [fast, slow])
        return list(results) == [fast], sim.now

    process = sim.process(racer())
    sim.run()
    assert process.value == (True, 1.0)
    assert sim.now == 5.0  # the slow timer still fires


def test_anyof_empty_fires_immediately():
    sim = Simulator()

    def proc():
        results = yield AnyOf(sim, [])
        return results

    process = sim.process(proc())
    sim.run()
    assert process.value == {}


def test_store_fifo_ordering():
    sim = Simulator()
    store = sim.store()
    received = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    def producer():
        yield sim.timeout(1.0)
        store.put("x")
        store.put("y")
        yield sim.timeout(1.0)
        store.put("z")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert received == ["x", "y", "z"]


def test_store_getters_served_in_order():
    sim = Simulator()
    store = sim.store()
    received = []

    def consumer(tag):
        item = yield store.get()
        received.append((tag, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))
    store.put(1)
    store.put(2)
    sim.run()
    assert received == [("first", 1), ("second", 2)]


def test_resource_limits_concurrency():
    sim = Simulator()
    resource = sim.resource(capacity=2)
    active = []
    peak = []

    def worker(tag):
        yield resource.acquire()
        active.append(tag)
        peak.append(len(active))
        yield sim.timeout(1.0)
        active.remove(tag)
        resource.release()

    for tag in range(5):
        sim.process(worker(tag))
    sim.run()
    assert max(peak) == 2
    assert sim.now == pytest.approx(3.0)


def test_resource_release_without_acquire_rejected():
    sim = Simulator()
    resource = sim.resource()
    with pytest.raises(SimulationError):
        resource.release()


def test_run_until_complete_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "finished"

    process = sim.process(proc())
    assert sim.run_until_complete(process) == "finished"


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    never = sim.event()

    def proc():
        yield never

    process = sim.process(proc())
    with pytest.raises(SimulationError, match="did not complete"):
        sim.run_until_complete(process)


def test_cancelled_timeout_never_fires():
    sim = Simulator()
    fired = []

    def proc():
        guard = sim.timeout(5.0)
        guard.add_callback(lambda _e: fired.append("guard"))
        yield sim.timeout(1.0)
        assert guard.cancel() is True
        yield sim.timeout(10.0)

    sim.process(proc())
    sim.run()
    assert fired == []
    assert sim.now == 11.0  # the cancelled 5.0 timer did not fire at 5.0


def test_cancel_is_idempotent_and_noop_after_fire():
    sim = Simulator()

    def proc():
        timer = sim.timeout(1.0)
        yield timer
        # Already fired: cancel must be a harmless no-op.
        assert timer.cancel() is False
        early = sim.timeout(50.0)
        assert early.cancel() is True
        assert early.cancel() is False

    sim.process(proc())
    sim.run()


def test_cancellation_compacts_heap():
    sim = Simulator()
    timers = [sim.timeout(100.0 + i) for i in range(1000)]
    assert sim.heap_size == 1000
    for timer in timers:
        timer.cancel()
    # Lazy invalidation plus compaction: no live entries remain and
    # the garbage does not accumulate past the live count.
    assert sim.heap_size == 0
    assert sim.stale_timer_count <= 1
    sim.run()
    assert sim.now == 0.0  # nothing left to grind through
    assert sim.events_processed == 0


def test_cancellation_compacts_heap_under_guard_churn():
    # The RPC deadline pattern: arm a long guard, wait briefly, cancel.
    # Without compaction the heap would hold every dead guard at once.
    sim = Simulator()
    guards = 20_000

    def churn():
        for _ in range(guards):
            guard = sim.timeout(1000.0)
            yield sim.timeout(0.001)
            guard.cancel()

    sim.process(churn())
    sim.run()
    assert sim.peak_heap_size < guards // 10
    assert sim.stale_timer_count == 0


def test_peek_and_run_skip_cancelled_head():
    sim = Simulator()
    first = sim.timeout(1.0)
    sim.timeout(2.0)
    first.cancel()
    assert sim.heap_size == 1
    sim.run()
    assert sim.now == 2.0
    assert sim.events_processed == 1


def test_run_until_complete_with_cancelled_timers():
    sim = Simulator()

    def proc():
        guard = sim.timeout(1000.0)
        yield sim.timeout(1.0)
        guard.cancel()
        return "done"

    process = sim.process(proc())
    assert sim.run_until_complete(process, limit=10.0) == "done"
    assert sim.stale_timer_count == 0


def test_defused_failure_stays_defused_through_anyof():
    # An orphaned AnyOf (its waiting process was killed) must not crash
    # the simulation when a pre-defused teardown failure reaches it.
    sim = Simulator()
    gate = sim.event()

    def sleeper():
        yield AnyOf(sim, [gate, sim.timeout(100.0)])

    victim = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        victim.kill()
        gate.defuse()
        gate.fail(RuntimeError("teardown"))

    sim.process(killer())
    sim.run()  # must not raise RuntimeError("teardown")
    assert sim.now == 100.0


def test_same_instant_timer_and_triggered_events_interleave_by_seq():
    """Timers and zero-delay events at one timestamp fire in
    scheduling order — the (time, seq) contract across the run queue
    and the timer heap."""
    sim = Simulator()
    order = []

    def note(tag):
        return lambda _event: order.append(tag)

    def driver():
        yield sim.timeout(1.0)
        # All of these fire at t=1.0; their relative order must be
        # exactly creation order, however they were scheduled.
        sim.timeout(0.0).add_callback(note("timer-a"))         # heap
        sim.event().succeed().add_callback(note("event-a"))    # run queue
        sim.timeout_at(sim.now).add_callback(note("timer-b"))  # heap, tie
        sim.event().succeed().add_callback(note("event-b"))    # run queue
        sim.timeout(0.0).add_callback(note("timer-c"))         # heap

    sim.process(driver())
    sim.run()
    assert order == ["timer-a", "event-a", "timer-b", "event-b", "timer-c"]


def test_same_instant_strict_scheduling_order():
    """The canonical interleaving: alternating zero-delay triggers and
    t=now timers fire strictly in the order they were scheduled."""
    sim = Simulator()
    order = []

    def fire(tag):
        return lambda _event: order.append(tag)

    def driver():
        yield sim.timeout(2.0)
        for index in range(6):
            if index % 2:
                sim.timeout(0.0).add_callback(fire("t%d" % index))
            else:
                sim.event().succeed().add_callback(fire("e%d" % index))

    sim.process(driver())
    sim.run()
    assert order == ["e0", "t1", "e2", "t3", "e4", "t5"]
    assert sim.now == 2.0


def test_zero_delay_cascade_bypasses_heap():
    """A deep succeed() chain never touches the timer heap."""
    sim = Simulator()
    chain = {"count": 0}

    def relay(event):
        if chain["count"] < 1000:
            chain["count"] += 1
            nxt = sim.event()
            nxt.add_callback(relay)
            nxt.succeed()

    first = sim.event()
    first.add_callback(relay)
    first.succeed()
    sim.run()
    assert chain["count"] == 1000
    assert sim.peak_heap_size == 0          # no timer ever armed
    assert sim.peak_ready_size >= 1
    assert sim.events_processed == 1001
    assert sim.now == 0.0                   # the cascade took no time


def test_step_merges_run_queue_and_tied_timer():
    sim = Simulator()
    order = []
    timer = sim.timeout(0.0)                # seq 0, t=0 (heap)
    timer.add_callback(lambda _e: order.append("timer"))
    event = sim.event().succeed()           # seq 1, t=0 (run queue)
    event.add_callback(lambda _e: order.append("event"))
    sim.step()
    assert order == ["timer"]               # lower seq wins the tie
    sim.step()
    assert order == ["timer", "event"]


def test_run_until_limit_with_pending_ready_events():
    """run_until_complete still detects a time-limit breach when only
    run-queue events remain (parity with the single-heap scheduler,
    where zero-delay events lived in the heap and tripped the same
    check)."""
    sim = Simulator()
    sim.run(until=5.0)

    def proc():
        yield sim.event()                   # never triggered

    process = sim.process(proc())           # start event fires at t=5
    with pytest.raises(SimulationError, match="did not complete"):
        sim.run_until_complete(process, limit=2.0)


def _mixed_schedule(sim, log):
    """Timers, same-instant triggers, a reserved seq and a cancellation;
    returns the process that finishes last."""
    def tag(name):
        return lambda _event: log.append((sim.now, name))

    for index, delay in enumerate([0.0, 1.0, 0.5, 1.0, 2.0]):
        sim.timeout(delay).add_callback(tag("timer%d" % index))
    sim.event().succeed().add_callback(tag("ready"))  # ties timer0
    reserved = sim.reserve_seq()
    doomed = sim.timeout(1.2)
    doomed.add_callback(tag("cancelled"))

    def chain():
        yield sim.timeout(1.0)
        log.append((sim.now, "woke"))
        sim.event().succeed().add_callback(tag("cascade"))
        doomed.cancel()
        sim.timeout(1.0).add_callback(tag("late"))
        # Armed after "late", yet fires ahead of it: its seq is older.
        yield sim.timeout_at(2.0, seq=reserved)
        log.append((sim.now, "reserved"))
        yield sim.timeout(1.0)
        log.append((sim.now, "last"))

    return sim.process(chain())


@pytest.mark.parametrize("driver", ["run", "step", "run_until_complete"])
def test_every_driver_fires_one_order(driver):
    def fired(drive):
        sim = Simulator()
        log = []
        last = _mixed_schedule(sim, log)
        drive(sim, last)
        return log, sim.now, sim.events_processed

    def by_steps(sim, _last):
        with pytest.raises(IndexError):
            while True:
                sim.step()

    drivers = {"run": lambda sim, _last: sim.run(),
               "step": by_steps,
               "run_until_complete": Simulator.run_until_complete}
    log, now, events = fired(drivers[driver])
    assert (log, now, events) == fired(drivers["run"])
    assert [name for _time, name in log] == [
        "timer0", "ready", "timer2", "timer1", "timer3", "woke",
        "cascade", "timer4", "reserved", "late", "last"]
    assert now == 3.0 and (1.2, "cancelled") not in log


def test_determinism_two_runs_identical():
    def build():
        sim = Simulator()
        log = []

        def noisy(tag, delay):
            yield sim.timeout(delay)
            log.append((tag, sim.now))

        for i in range(10):
            sim.process(noisy(i, (i * 7) % 5 + 0.5))
        sim.run()
        return log

    assert build() == build()


def test_timeout_at_with_reserved_seq_fires_at_reserved_position():
    """A timer armed late with a reserved sequence number fires as if
    it had been armed when the number was drawn — the contract the
    deadline pools (repro.sim.deadlines) are built on."""
    sim = Simulator()
    order = []

    def note(label):
        return lambda _e: order.append(label)

    reserved = sim.reserve_seq()
    sim.timeout_at(1.0).add_callback(note("armed-first"))
    # Armed *after* the plain timer, but at the reserved (earlier)
    # position: it must fire first at the shared instant.
    sim.timeout_at(1.0, seq=reserved).add_callback(note("reserved"))
    sim.run()
    assert order == ["reserved", "armed-first"]
    assert sim.now == 1.0


def test_reserved_seq_merges_with_run_queue_ties():
    """A reserved-seq timer tying the current instant outranks run-queue
    events enqueued after the reservation, exactly as a timer armed at
    reservation time would have."""
    sim = Simulator()
    order = []

    def driver():
        yield sim.timeout(1.0)
        reserved = sim.reserve_seq()
        ev = sim.event()
        ev.add_callback(lambda _e: order.append("triggered"))
        ev.succeed()  # run queue, seq drawn after the reservation
        sim.timeout_at(sim.now, seq=reserved).add_callback(
            lambda _e: order.append("reserved-tie"))
        yield sim.timeout(1.0)

    sim.run_until_complete(sim.process(driver()))
    assert order == ["reserved-tie", "triggered"]


def test_yielding_an_already_processed_failure_throws_it():
    sim = Simulator()
    failed = sim.event()
    failed.fail(ValueError("late"))
    failed.defuse()
    sim.run()

    def proc():
        try:
            yield failed
        except ValueError as error:
            return str(error)

    process = sim.process(proc())
    sim.run()
    assert process.value == "late"


def test_run_until_fires_an_event_due_at_that_instant():
    sim = Simulator()
    fired = []
    sim.timeout(5.0).add_callback(lambda _event: fired.append(sim.now))
    sim.run(until=5.0)
    assert fired == [5.0]



def test_a_process_yielding_a_non_event_fails_and_is_closed():
    sim = Simulator()
    log = []

    def proc():
        try:
            yield 42
        finally:
            log.append("closed")

    process = sim.process(proc())
    process.defuse()
    sim.run()
    assert log == ["closed"]
    with pytest.raises(SimulationError, match="expected an Event"):
        process.value


def test_a_timer_at_an_instant_already_passed_is_refused():
    sim = Simulator()
    sim.run(until=2.0)
    with pytest.raises(SimulationError, match="before now"):
        sim.timeout_at(1.0)


def test_the_value_of_a_pending_event_is_refused():
    with pytest.raises(SimulationError, match="not been triggered"):
        Simulator().event().value


def test_the_peak_heap_size_counts_the_most_timers_pending_at_once():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.timeout(delay)
    sim.run()
    sim.timeout(1.0)
    assert sim.peak_heap_size == 3


def test_the_kernel_counters_are_read_through_the_registry():
    from repro.analysis.telemetry import MetricsRegistry

    sim = Simulator()
    registry = MetricsRegistry()
    sim.bind_metrics(registry)
    sim.timeout(1.0)
    sim.timeout(2.0).cancel()
    sim.event().succeed()
    sim.run()
    assert [registry.get("kernel." + name).value for name in (
        "events_processed", "timers_scheduled", "timers_cancelled")] \
        == [2, 2, 1]


def test_any_of_fails_with_its_first_child_failure():
    sim = Simulator()
    failing = sim.event()

    def proc():
        try:
            yield AnyOf(sim, [failing, sim.timeout(5.0)])
        except ValueError as error:
            return str(error)

    process = sim.process(proc())
    failing.fail(ValueError("first"))
    sim.run()
    assert process.value == "first"


def test_a_child_failing_after_any_of_fired_is_defused():
    sim = Simulator()
    late = sim.event()

    def proc():
        fired = yield AnyOf(sim, [sim.timeout(1.0), late])
        yield sim.timeout(1.0)
        late.fail(ValueError("nobody waits"))
        return len(fired)

    process = sim.process(proc())
    sim.run()
    assert process.value == 1


def test_killing_a_finished_process_keeps_its_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 5

    process = sim.process(proc())
    sim.run()
    process.kill()
    assert process.value == 5


def test_an_event_fails_once_and_only_with_an_exception():
    event = Simulator().event()
    with pytest.raises(SimulationError, match="requires an exception"):
        event.fail("not an exception")
    event.fail(ValueError("once"))
    with pytest.raises(SimulationError, match="already triggered"):
        event.fail(ValueError("twice"))


def test_cancelled_timers_are_compacted_once_they_are_half_the_heap():
    sim = Simulator()
    keep = sim.timeout(1.0)
    sim.timeout(2.0).cancel()
    assert (sim.stale_timer_count, sim.heap_size) == (0, 1)
    assert keep.cancel() and sim.heap_size == 0


def test_a_resource_needs_room_for_one_holder():
    with pytest.raises(SimulationError, match="capacity"):
        Simulator().resource(0)


def test_a_fired_timer_is_freed_by_reference_counting_alone():
    # Its heap entry must let go of it: a timer -> entry -> timer cycle
    # would wait for the cycle collector, and a run fires millions.
    import gc

    from repro.sim.kernel import Timeout

    def live_timers():
        return sum(type(thing) is Timeout for thing in gc.get_objects())

    sim = Simulator()
    gc.collect()
    gc.disable()
    try:
        before = live_timers()
        sim.timeout(1.0)
        sim.run()
        assert live_timers() == before
    finally:
        gc.enable()
