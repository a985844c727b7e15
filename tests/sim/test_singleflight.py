"""The kernel's singleflight primitive on its own (no cache, no pool)."""

import pytest

from repro.sim.kernel import Simulator, Singleflight


class Abandoned(Exception):
    pass


def _bed(work_time=2.0, outcome="value"):
    """A flight table and a caller that leads or follows on key "k";
    the leader's work takes ``work_time`` and then returns ``outcome``
    (or raises it, if it is an exception)."""
    sim = Simulator()
    flights = Singleflight(sim, abandoned=Abandoned)
    log = []
    runs = []

    def work():
        runs.append(sim.now)
        yield sim.timeout(work_time)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def caller(name):
        try:
            waiter = flights.follow("k")
            if waiter is not None:
                value = yield waiter
            else:
                value = yield from flights.lead("k", work())
        except Exception as exc:  # noqa: BLE001 - recorded for asserts
            log.append((name, sim.now, exc))
        else:
            log.append((name, sim.now, value))

    return sim, flights, log, runs, caller


def test_followers_share_the_leaders_value_in_park_order():
    sim, flights, log, runs, caller = _bed()
    for name in ("leader", "a", "b", "c"):
        sim.process(caller(name))
    sim.run(until=1.0)
    assert (flights.inflight, flights.parked) == (1, 3)
    assert "k" in flights and flights.waiting("k") == 3
    sim.run()
    assert runs == [0.0]                     # the work ran once
    assert log == [("leader", 2.0, "value"), ("a", 2.0, "value"),
                   ("b", 2.0, "value"), ("c", 2.0, "value")]
    assert (flights.inflight, flights.parked) == (0, 0)
    assert "k" not in flights and flights.waiting("k") == 0


def test_a_failure_fans_out_to_every_follower_as_the_same_exception():
    error = KeyError("gone")
    sim, flights, log, runs, caller = _bed(outcome=error)
    for name in ("leader", "a", "b"):
        sim.process(caller(name))
    sim.run()
    assert [(name, exc) for name, _t, exc in log] \
        == [("leader", error), ("a", error), ("b", error)]
    assert (flights.inflight, flights.parked) == (0, 0)


def test_a_killed_leader_releases_followers_with_an_exception():
    sim, flights, log, runs, caller = _bed()
    leader = sim.process(caller("leader"))
    sim.process(caller("a"))
    sim.process(caller("b"))
    sim.run(until=1.0)
    leader.kill()
    sim.run()
    assert [name for name, _t, _v in log] == ["a", "b"]
    assert all(isinstance(exc, Abandoned) and when == 1.0
               for _name, when, exc in log)
    assert (flights.inflight, flights.parked) == (0, 0)
    # The key is free: the next caller leads a fresh run.
    sim.process(caller("again"))
    sim.run()
    assert runs == [0.0, 1.0] and log[-1] == ("again", 3.0, "value")


def test_a_killed_follower_is_passed_over_silently():
    for outcome in ("value", KeyError("gone")):
        sim, flights, log, runs, caller = _bed(outcome=outcome)
        sim.process(caller("leader"))
        victim = sim.process(caller("victim"))
        sim.process(caller("survivor"))
        sim.run(until=1.0)
        victim.kill()
        sim.run()                            # no unhandled failure
        assert [name for name, _t, _v in log] == ["leader", "survivor"]
        assert (flights.inflight, flights.parked) == (0, 0)


def test_keys_fly_independently():
    sim = Simulator()
    flights = Singleflight(sim, abandoned=Abandoned)
    done = []

    def call(key, delay):
        def work():
            yield sim.timeout(delay)
            return key

        waiter = flights.follow(key)
        value = (yield waiter) if waiter is not None \
            else (yield from flights.lead(key, work()))
        done.append((sim.now, value))

    for key, delay in (("x", 3.0), ("y", 1.0), ("x", 0.0)):
        sim.process(call(key, delay))
    sim.run(until=0.5)
    assert (flights.inflight, flights.parked) == (2, 1)
    sim.run()
    assert done == [(1.0, "y"), (3.0, "x"), (3.0, "x")]


def test_the_leader_runs_in_its_callers_frame():
    sim = Simulator()
    flights = Singleflight(sim, abandoned=Abandoned)

    def work():
        return "now"
        yield  # pragma: no cover - makes this a generator

    def caller():
        value = yield from flights.lead("k", work())
        return value

    process = sim.process(caller())
    sim.run()
    assert process.value == "now"
    # The process start; its end, which nobody waits on, is silent.
    assert sim.events_processed == 1
    with pytest.raises(StopIteration):
        next(flights.lead("k", work()))
