"""Unit tests for the batch-capable kernel timer path.

A :class:`BatchTimeout` carries many reserved-seq callbacks under one
armed timer; the contract is that firing order and instants are
exactly what dedicated per-entry :class:`Timeout` objects would have
produced.  These tests pin that contract, including a batch whose
head fires at the instant it is armed.
"""

from repro.sim.kernel import BatchTimeout, Event, Simulator


def entries_for(sim, specs, log):
    """Build sorted [at, seq, callback] entries from (at, tag) specs,
    reserving seqs in spec order (the contiguous block contract)."""
    entries = [[at, sim.reserve_seq(),
                lambda _e, tag=tag: log.append((sim.now, tag))]
               for at, tag in specs]
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return entries


def test_batch_fires_each_entry_at_its_instant():
    sim = Simulator()
    log = []
    BatchTimeout(sim, entries_for(sim, [(1.0, "a"), (2.0, "b"),
                                        (3.0, "c")], log))
    sim.run()
    assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
    assert sim.now == 3.0


def test_same_instant_entries_consumed_inline_in_seq_order():
    sim = Simulator()
    log = []
    BatchTimeout(sim, entries_for(sim, [(1.0, "a"), (1.0, "b"),
                                        (1.0, "c"), (2.0, "d")], log))
    events_before = sim.events_processed
    sim.run()
    assert log == [(1.0, "a"), (1.0, "b"), (1.0, "c"), (2.0, "d")]
    # The whole same-instant group cost one kernel event, the
    # re-armed tail another.
    assert sim.events_processed - events_before == 2


def test_batch_occupies_one_heap_slot():
    sim = Simulator()
    log = []
    BatchTimeout(sim, entries_for(
        sim, [(float(i), i) for i in range(1, 21)], log))
    assert sim.heap_size == 1
    sim.run()
    assert len(log) == 20


def test_unsorted_send_order_is_sorted_into_arrival_order():
    sim = Simulator()
    log = []
    # Send order a, b, c but arrival instants inverted: the seq drawn
    # first belongs to the *latest* arrival, exactly like variable
    # message sizes invert arrival order on a real burst.
    BatchTimeout(sim, entries_for(sim, [(3.0, "a"), (1.0, "b"),
                                        (2.0, "c")], log))
    sim.run()
    assert log == [(1.0, "b"), (2.0, "c"), (3.0, "a")]


def test_batch_matches_dedicated_timeouts_against_foreign_timers():
    """The pinning case: interleave a batch with foreign timers and
    zero-delay cascades, and compare the observable firing order
    against the same schedule built from per-entry Timeouts."""

    def drive(batched):
        sim = Simulator()
        log = []

        def note(tag):
            return lambda _e: log.append((sim.now, tag))

        # Foreign timers scheduled before the batch draw lower seqs.
        sim.timeout(1.0).add_callback(note("early-foreign"))
        sim.timeout(2.0).add_callback(note("tie-foreign"))
        specs = [(1.0, "b0"), (2.0, "b1"), (2.0, "b2"), (4.0, "b3")]
        if batched:
            entries = [[at, sim.reserve_seq(), note(tag)]
                       for at, tag in specs]
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            BatchTimeout(sim, entries)
        else:
            for at, tag in specs:
                sim.timeout_at(at).add_callback(note(tag))
        # And one scheduled after: larger seq, fires after batch ties.
        sim.timeout_at(2.0).add_callback(note("late-foreign"))
        sim.run()
        return log

    assert drive(batched=True) == drive(batched=False)


def test_run_queue_order_preserved_around_same_instant_batch():
    sim = Simulator()
    log = []

    def spark():
        yield sim.timeout(1.0)
        before = Event(sim)
        before.add_callback(lambda _e: log.append("before"))
        before.succeed()
        BatchTimeout(sim, entries_for(sim, [(1.0, "batch")], log))
        after = Event(sim)
        after.add_callback(lambda _e: log.append("after"))
        after.succeed()

    sim.process(spark())
    sim.run()
    assert log == ["before", (1.0, "batch"), "after"]


def test_callbacks_may_schedule_more_work_inline():
    sim = Simulator()
    log = []

    def chase(_event):
        log.append(("fired", sim.now))
        sim.timeout(0.5).add_callback(
            lambda _e: log.append(("chased", sim.now)))

    entries = [[1.0, sim.reserve_seq(), chase],
               [1.0, sim.reserve_seq(),
                lambda _e: log.append(("second", sim.now))]]
    BatchTimeout(sim, entries)
    sim.run()
    # The zero-delay follow-up scheduled by the first callback fires
    # *after* the same-instant second entry (larger seq), exactly as
    # with dedicated timers.
    assert log == [("fired", 1.0), ("second", 1.0), ("chased", 1.5)]


def test_empty_batch_is_a_noop():
    sim = Simulator()
    BatchTimeout(sim, [])
    sim.run()
    assert sim.events_processed == 0


def test_pending_counts_down():
    """The batch stays armed, in one heap slot, while an entry is
    still to fire."""
    sim = Simulator()
    log = []
    BatchTimeout(sim, entries_for(sim, [(1.0, "a"), (2.0, "b")], log))
    assert sim.heap_size == 1 and log == []
    sim.run(until=1.5)
    assert sim.heap_size == 1 and log == [(1.0, "a")]
    sim.run()
    assert sim.heap_size == 0 and log == [(1.0, "a"), (2.0, "b")]
