"""Unit tests for the pooled guard-deadline subsystem.

The contract under test: a pool keeps at most one kernel timer armed
however many deadlines are pending, and pooling is *invisible* to
event ordering — every expiry fires at exactly the ``(time, seq)``
position a dedicated per-call Timeout would have occupied.  Several
tests therefore run the same scenario twice, once with pooled
deadlines and once with plain per-call timers, and require identical
firing orders.
"""

import gc
import weakref

import pytest

from repro.analysis.telemetry import MetricsRegistry
from repro.sim.deadlines import (FifoDeadlinePool, OrderedDeadlinePool,
                                 shared_pool)
from repro.sim.kernel import Simulator
from repro.sim.rpc import RpcChannel, RpcServer, UdpRpcClient, UdpRpcServer
from repro.sim.topology import Topology
from repro.sim.world import World


def _collector(order, sim, label):
    return lambda: order.append((label, sim.now))


# -- the single-armed-timer property ----------------------------------------


def test_fifo_pool_keeps_one_kernel_timer_for_many_deadlines():
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 10.0)
    entries = [pool.add(lambda: None) for _ in range(500)]
    # 500 pending deadlines, one armed kernel timer.
    assert pool.live == 500
    assert sim.heap_size == 1
    assert pool.timer_arms == 1
    for entry in entries:
        assert pool.cancel(entry)
    assert pool.live == 0
    # Cancel is lazy: the armed timer is left to fire and clean up.
    sim.run()
    assert len(pool) == 0
    assert sim.heap_size == 0
    assert sim.stale_timer_count == 0


def test_fifo_steady_state_arms_once_per_timeout_window():
    # The UdpRpcClient pattern: arm, resolve quickly, arm the next.
    # The kernel timer should be re-armed roughly once per timeout
    # interval, not once per call.
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)

    def churn():
        for _ in range(1000):
            entry = pool.add(lambda: None)
            yield sim.timeout(0.01)  # "reply" long before the deadline
            pool.cancel(entry)

    sim.process(churn())
    sim.run()
    # 1000 guarded calls over 10 simulated seconds with a 1s timeout:
    # on the order of ten kernel arms, not a thousand.
    assert pool.timer_arms <= 20
    assert pool.expired_total == 0
    assert pool.live == 0 and len(pool) == 0


def test_fifo_pool_rejects_negative_delay_but_allows_zero():
    from repro.sim.kernel import SimulationError

    with pytest.raises(SimulationError):
        FifoDeadlinePool(Simulator(), -1.0)
    # Zero is degenerate but legal: guards expire at the instant they
    # are armed (FIFO ordering still holds on a monotonic clock).
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 0.0)
    order = []
    pool.add(_collector(order, sim, "a"))
    pool.add(_collector(order, sim, "b"))
    sim.run()
    assert [label for label, _t in order] == ["a", "b"]
    assert all(t == 0.0 for _label, t in order)


# -- expiry order and (time, seq) exactness ---------------------------------


def _fifo_tie_order(pooled):
    """Two same-instant guard expiries with an unrelated timer armed
    between them: the firing order must interleave by arming order."""
    sim = Simulator()
    order = []
    if pooled:
        pool = FifoDeadlinePool(sim, 1.0)
        pool.add(_collector(order, sim, "guard-a"))
        sim.timeout_at(1.0).add_callback(
            lambda _e: order.append(("between", sim.now)))
        pool.add(_collector(order, sim, "guard-b"))
    else:
        for label in ("guard-a", None, "guard-b"):
            if label is None:
                sim.timeout_at(1.0).add_callback(
                    lambda _e: order.append(("between", sim.now)))
            else:
                cb = _collector(order, sim, label)
                sim.timeout(1.0).add_callback(lambda _e, cb=cb: cb())
    sim.run()
    return order


def test_fifo_same_instant_expiries_interleave_exactly_like_timers():
    pooled = _fifo_tie_order(pooled=True)
    reference = _fifo_tie_order(pooled=False)
    assert pooled == reference
    assert [label for label, _t in pooled] \
        == ["guard-a", "between", "guard-b"]
    assert all(t == 1.0 for _label, t in pooled)


def test_fifo_cancelled_middle_entry_is_skipped():
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)
    order = []
    pool.add(_collector(order, sim, "a"))
    doomed = pool.add(_collector(order, sim, "b"))
    pool.add(_collector(order, sim, "c"))
    pool.cancel(doomed)
    sim.run()
    assert [label for label, _t in order] == ["a", "c"]
    assert pool.expired_total == 2
    assert pool.cancelled_total == 1


def test_cancel_is_idempotent_and_noop_after_expiry():
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)
    entry = pool.add(lambda: None)
    assert pool.cancel(entry) is True
    assert pool.cancel(entry) is False  # second cancel: no double count
    expired = pool.add(lambda: None)
    sim.run()
    assert pool.expired_total == 1
    assert pool.cancel(expired) is False  # already fired
    assert pool.cancelled_total == 1
    assert pool.live == 0


def _ordered_tie_order(pooled):
    """Mixed-delay guards meeting at one instant, with unrelated
    timers wedged between their sequence numbers."""
    sim = Simulator()
    order = []

    def note(label):
        return lambda _e: order.append((label, sim.now))

    def driver():
        yield sim.timeout(0.5)
        # All of these meet at t = 2.0 with interleaved seqs.
        if pooled:
            pool = OrderedDeadlinePool(sim)
            pool.add(_collector(order, sim, "guard-late-armed"), 1.5)
            sim.timeout_at(2.0).add_callback(note("plain-1"))
            pool.add(_collector(order, sim, "guard-2"), 1.5)
            sim.timeout_at(2.0).add_callback(note("plain-2"))
            # A shorter deadline arriving later: fires first overall.
            pool.add(_collector(order, sim, "guard-early"), 1.0)
        else:
            for label, delay in (("guard-late-armed", 1.5), (None, None),
                                 ("guard-2", 1.5), (None, None),
                                 ("guard-early", 1.0)):
                if label is None:
                    sim.timeout_at(2.0).add_callback(
                        note("plain-%d" % (len(order) + 1)))
                else:
                    cb = _collector(order, sim, label)
                    sim.timeout(delay).add_callback(
                        lambda _e, cb=cb: cb())

    sim.process(driver())
    sim.run()
    return order


def test_ordered_same_instant_expiries_interleave_exactly_like_timers():
    pooled = _ordered_tie_order(pooled=True)
    # The unpooled reference names its plain timers by arrival position,
    # so compare labels positionally rather than the capture closures.
    assert [label for label, _t in pooled] == [
        "guard-early", "guard-late-armed", "plain-1", "guard-2", "plain-2"]
    assert [t for _label, t in pooled] == [1.5, 2.0, 2.0, 2.0, 2.0]
    reference = _ordered_tie_order(pooled=False)
    assert [t for _label, t in reference] == [t for _label, t in pooled]
    # Guards fire in the same positions in both runs.
    assert [i for i, (label, _t) in enumerate(pooled)
            if label.startswith("guard")] \
        == [i for i, (label, _t) in enumerate(reference)
            if label.startswith("guard")]


def test_ordered_pool_shelves_and_reclaims_on_undercut():
    sim = Simulator()
    pool = OrderedDeadlinePool(sim)
    order = []
    pool.add(_collector(order, sim, "slow"), 10.0)
    assert pool.timer_arms == 1
    pool.add(_collector(order, sim, "fast"), 1.0)
    # The shorter deadline undercut the armed timer: the superseded
    # timer is shelved (still pending at its reserved position, to be
    # reclaimed when "slow" becomes earliest again) and a new one is
    # armed for "fast".
    assert pool.timer_arms == 2
    assert pool.timer_shelved == 1
    assert sim.heap_size == 2
    sim.run()
    assert [label for label, _t in order] == ["fast", "slow"]
    assert [t for _label, t in order] == [1.0, 10.0]
    # "slow" fired through the reclaimed timer: no third kernel arm.
    assert pool.timer_arms == 2
    assert sim.heap_size == 0 and sim.stale_timer_count == 0
    # A later, longer deadline must NOT touch the armed timer.
    pool.add(_collector(order, sim, "later"), 5.0)
    arms = pool.timer_arms
    pool.add(_collector(order, sim, "latest"), 7.0)
    assert pool.timer_arms == arms


def test_ordered_pool_orphaned_shelved_timer_is_a_noop():
    sim = Simulator()
    pool = OrderedDeadlinePool(sim)
    order = []
    doomed = pool.add(_collector(order, sim, "doomed"), 2.0)
    pool.add(_collector(order, sim, "fast"), 1.0)   # shelves "doomed"
    pool.add(_collector(order, sim, "slow"), 10.0)
    pool.cancel(doomed)
    sim.run()
    # The shelved timer for "doomed" fired at t=2 as a pure no-op (its
    # entry died); "fast" and "slow" expired normally around it.
    assert [label for label, _t in order] == ["fast", "slow"]
    assert pool.live == 0 and len(pool) == 0
    assert not pool._shelf
    assert sim.heap_size == 0 and sim.stale_timer_count == 0


def test_ordered_pool_tie_keeps_armed_timer():
    sim = Simulator()
    pool = OrderedDeadlinePool(sim)
    order = []
    pool.add(_collector(order, sim, "first"), 3.0)
    pool.add(_collector(order, sim, "second"), 3.0)  # tie: no re-arm
    assert pool.timer_arms == 1
    assert pool.timer_shelved == 0
    sim.run()
    assert [label for label, _t in order] == ["first", "second"]


# -- lazy cleanup and accounting --------------------------------------------


def test_dead_prefix_is_discarded_when_the_armed_timer_fires():
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)
    fired = []
    entries = [pool.add(lambda: fired.append(True)) for _ in range(10)]
    for entry in entries:
        pool.cancel(entry)
    # All ten deadlines were cancelled, but lazily: the entries sit in
    # the deque until the armed timer fires and sweeps the dead prefix.
    assert len(pool) == 10 and pool.live == 0
    sim.run()
    assert fired == []
    assert len(pool) == 0
    assert pool.expired_total == 0
    assert sim.heap_size == 0 and sim.stale_timer_count == 0


def test_pool_metrics_bind_and_drain():
    sim = Simulator()
    registry = MetricsRegistry()
    pool = FifoDeadlinePool(sim, 1.0)
    pool.bind_metrics(registry, "pool")
    kept = pool.add(lambda: None)
    pool.add(lambda: None)
    pool.cancel(kept)
    assert registry.get("pool.armed").value == 2
    assert registry.get("pool.cancelled").value == 1
    assert registry.get("pool.depth").value == 1
    sim.run()
    assert registry.get("pool.expired").value == 1
    assert registry.get("pool.depth").value == 0
    # Two kernel arms: the initial one (for the later-cancelled head)
    # and the re-arm for the live entry when that timer fired.
    assert registry.get("pool.timer_arms").value == 2
    assert registry.get("pool.timer_shelved").value == 0


def test_shared_pool_is_one_per_simulator():
    sim_a, sim_b = Simulator(), Simulator()
    pool_a = shared_pool(sim_a)
    assert shared_pool(sim_a) is pool_a
    assert shared_pool(sim_b) is not pool_a
    assert isinstance(pool_a, OrderedDeadlinePool)


def test_expiry_callback_errors_surface_like_timer_callbacks():
    # A failing expiry callback propagates out of run(), exactly as a
    # failing per-call timer callback would.
    sim = Simulator()
    pool = FifoDeadlinePool(sim, 1.0)

    def boom():
        raise RuntimeError("expiry exploded")

    pool.add(boom)
    with pytest.raises(RuntimeError, match="expiry exploded"):
        sim.run()


def test_ordered_pool_rejects_negative_delay_without_poisoning():
    # Regression: a negative delay used to mutate the pool (heap entry
    # + live count) before the kernel arm raised, stranding a
    # past-dated entry that crashed the next firing of the shared
    # simulator-wide pool.
    from repro.sim.kernel import SimulationError

    sim = Simulator()
    pool = OrderedDeadlinePool(sim)
    order = []
    with pytest.raises(SimulationError):
        pool.add(_collector(order, sim, "bad"), -0.5)
    assert pool.live == 0 and len(pool) == 0
    # The pool stays fully usable afterwards.
    pool.add(_collector(order, sim, "good"), 1.0)
    sim.run()
    assert [label for label, _t in order] == ["good"]


# -- a cancelled guard lets go of its call ----------------------------------


class _Reply:
    """A reply object a weak reference can watch."""

    wire_size = 64


@pytest.mark.parametrize("transport", ["udp", "channel"])
def test_a_returned_call_frees_its_reply_before_the_deadline(transport):
    """A guard holds its call's waiter, and the waiter its reply: once
    the call returns, cancelling the guard must let the reply go, not
    keep it until the (long) deadline passes."""
    world = World(topology=Topology.balanced(regions=1, countries=1,
                                             cities=1, sites=2), seed=1)
    client_host = world.host("client", "r0/c0/m0/s0")
    server_host = world.host("server", "r0/c0/m0/s1")
    replies = []

    def answer(ctx, args):
        replies.append(weakref.ref(reply := _Reply()))
        return reply

    server = (UdpRpcServer if transport == "udp" else RpcServer)(
        server_host, 7000)
    server.register("get", answer)
    server.start()

    def call():
        if transport == "udp":
            client = UdpRpcClient(client_host, timeout=60.0)
            reply = yield from client.call(server_host, 7000, "get", {})
        else:
            channel = yield from RpcChannel.open(client_host, server_host,
                                                 7000)
            reply = yield from channel.call("get", {}, timeout=60.0)
            channel.close()
        return type(reply).__name__

    assert world.run_until(client_host.spawn(call())) == "_Reply"
    world.run(until=world.now + 1.0)  # well before the 60 s deadline
    gc.collect()
    (ref,) = replies
    assert ref() is None
