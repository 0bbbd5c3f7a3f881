"""Every RPC call ends exactly where the deadline rule says, under random faults.

The rule: a call ends once.  If its reply is delivered by the call's
deadline (invoke time plus timeout, as NOT READY notices delivered
before then moved it), the call ends at that delivery with the reply's
outcome; otherwise it ends at exactly that deadline with
:class:`RpcTimeout`.  A call's deadline is filed only once the call can
still miss it, so these seeded schedules of partitions, heals, crashes
and recoveries check that every way a call can miss its reply files it.
"""

import random

import pytest

from repro.net import Network, RemoteError, RpcClient, RpcServer, RpcTimeout
from repro.sim import RngRegistry, Simulator

CLIENTS = ("client0", "client1", "client2")
SERVERS = ("server0", "server1")
HORIZON = 20.0
CALLS = 60
FAULTS = 16
#: A slow network, so that faults often catch a message in flight: a
#: round trip takes 0.2 to 0.3 s.
LATENCY, JITTER = 0.1, 0.05


class WatchedClient(RpcClient):
    """An RPC client that logs every reply and notice delivered to it."""

    def __init__(self, sim, network, address):
        super().__init__(sim, network, address)
        self.delivered = {}  # request id -> [(time, payload), ...]

    def _log(self, message):
        entry = (self.sim.now, message.payload)
        self.delivered.setdefault(message.payload["id"], []).append(entry)

    def _on_response(self, message):
        self._log(message)
        super()._on_response(message)

    def _on_not_ready(self, message):
        self._log(message)
        super()._on_not_ready(message)


def serve(sim, server):
    """Register one handler of each kind the rule must cover."""

    def fail(tag):
        raise ValueError(f"refused {tag}")

    def delayed(tag, delay):
        yield sim.timeout(delay)
        return tag

    def instant(tag):
        return tag
        yield  # a generator handler that returns on its first step

    def silent(tag):
        yield sim.event()  # never answers

    def becoming_ready(not_ready, tag, ready_in, reply_in):
        not_ready(sim.now + ready_in)
        yield sim.timeout(reply_in)
        return tag

    server.register("plain", lambda tag: tag)
    server.register("fail", fail)
    server.register("delayed", delayed)
    server.register("instant", instant)
    server.register("silent", silent)
    server.register("becoming_ready", becoming_ready, not_ready=True)


def draw_args(rng, method, tag):
    if method == "delayed":
        return (tag, rng.uniform(0.0, 2.5))
    if method == "becoming_ready":
        return (tag, rng.uniform(0.0, 2.0), rng.uniform(0.0, 4.0))
    return (tag,)


def draw_timeout(rng):
    # One call in four times out within about one round trip, so it can
    # expire although the server answers.
    if rng.random() < 1 / 4:
        return rng.uniform(0.1, 0.4)
    return rng.uniform(0.3, 3.0)


def expected_end(invoked_at, timeout, delivered):
    """``(time, reply payload or None)`` at which the rule ends a call."""
    deadline = invoked_at + timeout
    for when, payload in delivered:
        assert when != deadline, "a tie with the deadline: the rule is silent"
        if when > deadline:
            break
        if payload["kind"] == "rpc_not_ready":
            deadline = max(deadline, payload["ready_at"] + timeout)
        else:
            return when, payload
    return deadline, None


def schedule_faults(sim, net, rng):
    """Partition a client from a server, or crash either side, for up
    to 2 s each, at random instants."""
    for _ in range(FAULTS):
        start = rng.uniform(0.0, HORIZON)
        end = start + rng.uniform(0.0, 2.0)
        if rng.random() < 0.5:
            pair = (rng.choice(CLIENTS), rng.choice(SERVERS))
            sim.defer_at(start, lambda pair=pair: net.partition(*pair))
            sim.defer_at(end, lambda pair=pair: net.heal(*pair))
        else:
            node = rng.choice(CLIENTS + SERVERS)
            sim.defer_at(start, lambda node=node: net.set_alive(node, False))
            sim.defer_at(end, lambda node=node: net.set_alive(node, True))


@pytest.mark.parametrize("seed", range(30))
def test_every_call_ends_at_its_reply_or_its_deadline_under_random_faults(seed):
    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim, rng=RngRegistry(seed), latency=LATENCY, jitter=JITTER)
    for address in SERVERS:
        serve(sim, RpcServer(sim, net, address))
    clients = {address: WatchedClient(sim, net, address) for address in CLIENTS}
    schedule_faults(sim, net, rng)
    calls, invoked = [], dict.fromkeys(CLIENTS, 0)
    methods = ("plain", "fail", "delayed", "instant", "silent", "becoming_ready", "missing")
    for tag in range(CALLS):
        client = clients[rng.choice(CLIENTS)]
        target, method = rng.choice(SERVERS), rng.choice(methods)
        args, timeout = draw_args(rng, method, tag), draw_timeout(rng)
        call = {"client": client, "tag": tag, "timeout": timeout, "outcomes": []}
        calls.append(call)

        def invoke(call=call, target=target, method=method, args=args):
            client, outcomes = call["client"], call["outcomes"]
            call["invoked_at"] = sim.now
            invoked[client.address] += 1  # request ids count from 1 per client
            call["id"] = invoked[client.address]
            client.invoke(
                target, method, args,
                lambda result, error: outcomes.append((sim.now, result, error)),
                timeout=call["timeout"],
            )

        sim.defer_at(rng.uniform(0.0, HORIZON), invoke)
    sim.run()

    for call in calls:
        client = call["client"]
        when, reply = expected_end(
            call["invoked_at"], call["timeout"], client.delivered.get(call["id"], [])
        )
        [(ended_at, result, error)] = call["outcomes"]  # done ran once
        assert ended_at == when
        if reply is None:
            assert (result, type(error)) == (None, RpcTimeout)
        elif "error" in reply:
            assert (result, type(error)) == (None, RemoteError)
        else:
            assert (result, error) == (call["tag"], None)
    assert all(client._pending == {} for client in clients.values())
    assert net.rpc_timeouts._heap == []


def test_a_timeout_shorter_than_the_round_trip_expires_although_the_server_answers():
    sim = Simulator()
    net = Network(sim, jitter=0.0)
    server = RpcServer(sim, net, "server")
    server.register("echo", lambda x: x)
    client = RpcClient(sim, net, "client")
    outcomes = []
    client.invoke(
        "server", "echo", (1,),
        lambda result, error: outcomes.append((sim.now, type(error))),
        timeout=0.3e-3,
    )
    sim.run()
    assert outcomes == [(0.3e-3, RpcTimeout)]
    # The server answered, and the reply arrived after the deadline.
    assert server.requests_served == 1 and net.delivered_count == 2
    assert client._pending == {} and net.rpc_timeouts._heap == []
