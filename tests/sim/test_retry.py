"""Unit tests for the shared retry-policy subsystem (sim/retry.py)."""

import pytest

from repro.sim.retry import (ExponentialBackoff, FixedRetry, RetryBudget,
                             RetryPolicy, jitter_rng)
from repro.sim.rpc import RpcTimeout, UdpRpcClient, UdpRpcServer
from repro.sim.topology import Level, Topology
from repro.sim.world import World


@pytest.fixture
def world():
    topo = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
    return World(topology=topo, seed=3)


def _udp_server(world, host, port=5300):
    server = UdpRpcServer(host, port)
    server.register("lookup",
                    lambda ctx, args: {"found": args["key"].upper()})
    server.start()
    return server


def _no_rng():
    raise AssertionError("policy drew randomness it must not need")


# -- RetryBudget -------------------------------------------------------------


def test_budget_burst_then_refill():
    budget = RetryBudget(rate=1.0, burst=2.0)
    assert budget.spend(0.0)
    assert budget.spend(0.0)
    assert not budget.spend(0.0)          # burst exhausted
    assert not budget.spend(0.5)          # half a token is not enough
    assert budget.spend(1.5)              # 1.5 tokens refilled by now
    assert budget.granted == 3
    assert budget.denied == 2


def test_budget_refill_caps_at_burst():
    budget = RetryBudget(rate=10.0, burst=3.0)
    for _ in range(3):
        assert budget.spend(0.0)
    # A long idle period refills to burst, not beyond.
    for _ in range(3):
        assert budget.spend(100.0)
    assert not budget.spend(100.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        RetryBudget(rate=-1.0, burst=1.0)
    with pytest.raises(ValueError):
        RetryBudget(rate=1.0, burst=0.0)


# -- policies ---------------------------------------------------------------


def test_fixed_retry_never_delays_or_draws_randomness():
    policy = FixedRetry(timeout=0.5, retries=3)
    assert policy.attempts == 4
    for attempt in range(1, 5):
        assert policy.retry_delay(attempt, _no_rng) == 0.0


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        ExponentialBackoff(base=0.0)
    with pytest.raises(ValueError):
        ExponentialBackoff(multiplier=0.5)
    with pytest.raises(ValueError):
        ExponentialBackoff(base=1.0, max_delay=0.5)
    with pytest.raises(ValueError):
        ExponentialBackoff(jitter=1.0)


def test_backoff_schedule_without_jitter_is_exact():
    policy = ExponentialBackoff(base=0.1, multiplier=2.0, max_delay=0.5,
                                jitter=0.0)
    delays = [policy.retry_delay(k, _no_rng) for k in range(1, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]  # capped at max_delay


def test_backoff_jitter_is_deterministic_and_bounded():
    policy = ExponentialBackoff(base=0.1, multiplier=2.0, max_delay=5.0,
                                jitter=0.5)

    def draw(key):
        rng = policy.make_rng(key)
        return [policy.retry_delay(k, lambda: rng) for k in range(1, 6)]

    first, again = draw("host-a"), draw("host-a")
    other = draw("host-b")
    assert first == again                # same key -> same schedule
    assert first != other                # distinct keys desynchronize
    for k, delay in enumerate(first, start=1):
        ceiling = min(5.0, 0.1 * 2.0 ** (k - 1))
        assert ceiling * 0.5 <= delay <= ceiling


def test_jitter_rng_is_stable_across_processes():
    # Seeded by crc32 of the key, NOT by Python's randomized hash().
    assert jitter_rng("gls-node").random() == jitter_rng("gls-node").random()


# -- UdpRpcClient adoption ---------------------------------------------------


def _lossy_run(world_seed, client_factory):
    """One deterministic lossy workload; returns a replay fingerprint."""
    topo = Topology.balanced(regions=2, countries=2, cities=2, sites=2)
    world = World(topology=topo, seed=world_seed)
    world.network.params.loss[Level.WORLD] = 0.6
    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r1/c0/m0/s0")
    _udp_server(world, b)
    client = client_factory(a)
    outcomes = []

    def run():
        for key in ("x", "y", "z"):
            try:
                value = yield from client.call(b, 5300, "lookup",
                                               {"key": key})
                outcomes.append(value["found"])
            except RpcTimeout:
                outcomes.append("timeout")

    proc = a.spawn(run())
    world.run_until(proc, limit=1000)
    return (outcomes, world.now, world.sim.events_processed,
            client.retries_sent, client.timeouts_hit)


def test_fixed_retry_policy_is_byte_identical_to_legacy():
    legacy = _lossy_run(3, lambda a: UdpRpcClient(a, timeout=1.0, retries=8))
    policy = _lossy_run(3, lambda a: UdpRpcClient(
        a, policy=FixedRetry(timeout=1.0, retries=8)))
    assert legacy == policy
    assert legacy[3] > 0  # the lossy link actually forced retries


def test_backoff_policy_still_gets_through_loss():
    fingerprint = _lossy_run(3, lambda a: UdpRpcClient(
        a, policy=ExponentialBackoff(timeout=1.0, retries=8, base=0.1,
                                     jitter=0.5)))
    assert fingerprint[0] == ["X", "Y", "Z"]
    # And a second run replays identically (deterministic jitter).
    assert fingerprint == _lossy_run(3, lambda a: UdpRpcClient(
        a, policy=ExponentialBackoff(timeout=1.0, retries=8, base=0.1,
                                     jitter=0.5)))


def test_backoff_desynchronizes_clients_against_dead_host(world):
    # Two clients start identical calls at the same instant against a
    # dead host.  FixedRetry retries land at the same times; jittered
    # backoff spreads them.
    dead = world.host("node", "r0/c1/m0/s0")
    dead.crash()
    logs = {}
    for name in ("client-a", "client-b"):
        host = world.host(name, "r0/c0/m0/s%d" % (name == "client-b"))
        client = UdpRpcClient(host, policy=ExponentialBackoff(
            timeout=0.5, retries=3, base=0.2, jitter=0.5))
        client.retry_log = logs.setdefault(name, [])

        def run(c=client):
            try:
                yield from c.call(dead, 5300, "lookup", {"key": "x"})
            except RpcTimeout:
                pass

        world.sim.process(run())
    world.run(until=60.0)
    assert len(logs["client-a"]) == 3 and len(logs["client-b"]) == 3
    assert logs["client-a"] != logs["client-b"]


def test_fixed_retry_clients_do_synchronize_against_dead_host(world):
    # The contrast case for the test above: the legacy discipline
    # retries on the same beat.
    dead = world.host("node", "r0/c1/m0/s0")
    dead.crash()
    logs = {}
    for name in ("client-a", "client-b"):
        host = world.host(name, "r0/c0/m0/s%d" % (name == "client-b"))
        client = UdpRpcClient(host, timeout=0.5, retries=3)
        client.retry_log = logs.setdefault(name, [])

        def run(c=client):
            try:
                yield from c.call(dead, 5300, "lookup", {"key": "x"})
            except RpcTimeout:
                pass

        world.sim.process(run())
    world.run(until=60.0)
    assert logs["client-a"] == logs["client-b"] == [0.5, 1.0, 1.5]


def test_budget_denial_ends_call_early(world):
    dead = world.host("node", "r0/c1/m0/s0")
    dead.crash()
    host = world.host("client", "r0/c0/m0/s0")
    budget = RetryBudget(rate=0.0, burst=2.0)  # two retries, ever
    client = UdpRpcClient(host, policy=ExponentialBackoff(
        timeout=0.5, retries=10, base=0.1, jitter=0.0, budget=budget))
    outcome = []

    def run():
        try:
            yield from client.call(dead, 5300, "lookup", {"key": "x"})
        except RpcTimeout:
            outcome.append(world.now)

    world.sim.process(run())
    world.run(until=120.0)
    assert outcome  # gave up long before 11 x 0.5s of attempts
    assert client.retries_sent == 2
    assert client.budget_denied == 1
    assert budget.denied == 1


def test_budget_shared_across_clients_caps_system_retries(world):
    dead = world.host("node", "r0/c1/m0/s0")
    dead.crash()
    budget = RetryBudget(rate=0.0, burst=3.0)
    clients = []
    for index in range(4):
        host = world.host("client-%d" % index, "r0/c0/m0/s0")
        client = UdpRpcClient(host, policy=ExponentialBackoff(
            timeout=0.5, retries=5, base=0.1, jitter=0.5, budget=budget))
        clients.append(client)

        def run(c=client):
            try:
                yield from c.call(dead, 5300, "lookup", {"key": "x"})
            except RpcTimeout:
                pass

        world.sim.process(run())
    world.run(until=120.0)
    assert sum(c.retries_sent for c in clients) == 3
    assert sum(c.budget_denied for c in clients) == 4 - 3 + 3  # remainder


# -- the retries_sent bugfix -------------------------------------------------


def test_crash_mid_retry_does_not_count_unsent_retry(world):
    # Regression: retries_sent was incremented before send_to could
    # fail on a socket a crash had closed, counting a retry that never
    # left the host.
    from repro.sim.transport import TransportError

    a = world.host("client", "r0/c0/m0/s0")
    b = world.host("node", "r0/c0/m0/s1")  # never started: no replies
    client = UdpRpcClient(a, timeout=0.5, retries=4)
    outcome = []

    def stranded():
        try:
            yield from client.call(b, 5300, "lookup", {"key": "x"})
        except TransportError:
            outcome.append(("send failed", world.now))
        except RpcTimeout:
            outcome.append(("timed out", world.now))

    # Survives the crash: not registered with host a.
    world.sim.process(stranded())

    def chaos():
        # Crash between the first attempt and its retry: the retry's
        # send hits a closed socket on a downed host.
        yield world.sim.timeout(0.25)
        a.crash()

    world.sim.process(chaos())
    world.run(until=30.0)
    assert outcome and outcome[0][0] == "send failed"
    assert client.retries_sent == 0


def test_metrics_expose_budget_denied(world):
    host = world.host("client", "r0/c0/m0/s0")
    client = UdpRpcClient(host, timeout=0.5, retries=1)
    assert client.budget_denied == 0


def test_a_constant_backoff_is_a_valid_exponential_one():
    # Multiplier 1 and a cap at the base delay are the boundary cases.
    policy = ExponentialBackoff(base=0.2, multiplier=1.0, max_delay=0.2,
                                jitter=0.0)
    assert policy.retry_delay(3, lambda: None) == 0.2
    with pytest.raises(ValueError, match="multiplier"):
        ExponentialBackoff(multiplier=0.9)
    with pytest.raises(ValueError, match="max_delay"):
        ExponentialBackoff(base=0.2, max_delay=0.1)
