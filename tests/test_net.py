"""Tests for the simulated network, RPC and iSCSI layers."""

import ast
from pathlib import Path

import pytest

import repro
from repro.disk import SimulatedDisk
from repro.net import (
    IscsiInitiator,
    IscsiTargetServer,
    Network,
    RemoteError,
    RpcClient,
    RpcServer,
    RpcTimeout,
    SessionError,
    StorageVolume,
)
from repro.sim import Event, EventDigest, Interrupt, RngRegistry, Simulator
from repro.workload import KB, MB


def make_net():
    sim = Simulator()
    return sim, Network(sim, jitter=0.0)


def note(text):
    return {"kind": "note", "text": text}


def listen(net, address):
    """Register a ``note`` handler on ``address``; returns (time, message) log."""
    received = []
    net.node(address).on("note", lambda m: received.append((net.sim.now, m)))
    return received


def reply_events(net):
    """Wrap ``net.send`` on the instance; returns the ``sim.events`` count
    at each RPC reply sent, a log that fills as the simulation runs."""
    replied_in = []
    send = net.send

    def logged(src, dst, payload, size=256):
        if payload["kind"] == "rpc_response":
            replied_in.append(net.sim.events)
        send(src, dst, payload, size)

    net.send = logged
    return replied_in


class TestNetwork:
    def test_delivery_with_latency(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        received = listen(net, "b")
        net.send("a", "b", note("hello"), size=0)
        sim.run()
        [(at, message)] = received
        assert message.payload["text"] == "hello"
        assert (message.src, message.sent_at) == ("a", 0.0)
        assert at == pytest.approx(net.latency)

    def test_size_adds_serialization_delay(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        received = listen(net, "b")
        net.send("a", "b", note("big"), size=1_250_000)  # 10 ms at 1 GbE
        sim.run()
        [(at, _)] = received
        assert at == pytest.approx(net.latency + 0.01)

    def test_dead_receiver_drops(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        received = listen(net, "b")
        net.set_alive("b", False)
        net.send("a", "b", note("x"))
        sim.run()
        assert net.dropped_count == 1
        assert received == []

    def test_dead_sender_drops(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        net.set_alive("a", False)
        net.send("a", "b", "x")
        sim.run()
        assert net.dropped_count == 1

    def test_unknown_destination_drops(self):
        sim, net = make_net()
        net.add_node("a")
        net.send("a", "ghost", "x")
        assert net.dropped_count == 1

    def test_unknown_sender_raises(self):
        sim, net = make_net()
        with pytest.raises(ValueError):
            net.send("ghost", "a", "x")

    def test_partition_blocks_both_ways(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        at_a, at_b = listen(net, "a"), listen(net, "b")
        net.partition("a", "b")
        net.send("a", "b", note("x"))
        net.send("b", "a", note("y"))
        sim.run()
        assert net.dropped_count == 2
        assert at_a == at_b == []
        net.heal("a", "b")
        net.send("a", "b", note("z"))
        sim.run()
        assert net.delivered_count == 1
        assert [m.payload["text"] for _, m in at_b] == ["z"]

    def test_unhandled_kind_drops(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        received = listen(net, "b")
        net.send("a", "b", {"kind": "other"})
        sim.run()
        assert (net.dropped_count, net.delivered_count, received) == (1, 0, [])

    def test_second_handler_for_a_kind_rejected(self):
        _, net = make_net()
        node = net.add_node("a")
        node.on("note", lambda m: None)
        with pytest.raises(ValueError):
            node.on("note", lambda m: None)

    def test_duplicate_address_rejected(self):
        _, net = make_net()
        net.add_node("a")
        with pytest.raises(ValueError):
            net.add_node("a")

    def test_sends_on_one_link_leave_other_links_alone(self):
        # Each (src, dst) link draws its jitter from its own stream, so
        # extra traffic on a->b moves no arrival on a->c or b->c.
        def arrivals(extra_per_round):
            sim = Simulator()
            net = Network(sim, rng=RngRegistry(3))
            for address in ("a", "b", "c"):
                net.add_node(address)
            at_b, at_c = listen(net, "b"), listen(net, "c")
            for i in range(10):
                for _ in range(extra_per_round):
                    net.send("a", "b", note("extra"))
                net.send("a", "c", note(f"a{i}"))
                net.send("b", "c", note(f"b{i}"))
                sim.run(until=sim.now + 0.001)
            return len(at_b), [(at, m.payload["text"]) for at, m in at_c]

        quiet_b, quiet_c = arrivals(0)
        busy_b, busy_c = arrivals(3)
        assert (quiet_b, busy_b) == (0, 30)
        assert busy_c == quiet_c

    def test_arrival_is_latency_serialization_and_the_links_uniform_draw(self):
        # Bit-exact, draw for draw: the jitter is the link stream's
        # ``uniform(0, jitter)``, added after latency + size / bandwidth.
        sim = Simulator()
        net = Network(sim, rng=RngRegistry(5))
        net.add_node("a")
        net.add_node("b")
        received = listen(net, "b")
        sizes = [0, 256, 4096, 1_250_000, 17, 256]
        for i, size in enumerate(sizes):
            sim.defer_at(0.37 * i, lambda size=size: net.send("a", "b", note("x"), size=size))
        sim.run()
        stream = RngRegistry(5).stream("network:a->b")
        expected = [
            0.37 * i + (net.latency + size / net.bandwidth + stream.uniform(0, net.jitter))
            for i, size in enumerate(sizes)
        ]
        assert [at for at, _ in received] == expected
        assert [m.sent_at for _, m in received] == [0.37 * i for i in range(len(sizes))]

    def test_partition_raised_in_flight_drops_at_delivery(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        received = listen(net, "b")
        net.send("a", "b", note("x"))
        sim.defer(net.latency / 2, lambda: net.partition("b", "a"))
        sim.run()
        assert (received, net.delivered_count, net.dropped_count) == ([], 0, 1)

    def test_heal_before_arrival_delivers(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        received = listen(net, "b")
        net.send("a", "b", note("x"), size=0)
        net.partition("a", "b")  # raised after the send: the message is in flight
        sim.defer(net.latency / 2, lambda: net.heal("b", "a"))
        sim.run()
        assert [(at, m.payload["text"]) for at, m in received] == [(net.latency, "x")]

    def test_messages_dropped_at_the_sender_draw_no_jitter(self):
        # A dead sender's message and one to an address not yet on the
        # network are dropped before the jitter draw: the next message
        # on the link arrives as if they had never been sent.
        def arrival(drop_first):
            sim = Simulator()
            net = Network(sim, rng=RngRegistry(9))
            net.add_node("a")
            if drop_first:
                net.send("a", "b", note("to nobody"))
            net.add_node("b")
            received = listen(net, "b")
            if drop_first:
                net.set_alive("a", False)
                net.send("a", "b", note("from the dead"))
                net.set_alive("a", True)
            net.send("a", "b", note("kept"))
            sim.run()
            assert net.dropped_count == (2 if drop_first else 0)
            return [(at, m.payload["text"]) for at, m in received]

        assert arrival(drop_first=True) == arrival(drop_first=False)

    def test_message_is_immutable(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        received = listen(net, "b")
        net.send("a", "b", note("x"))
        sim.run()
        [(_, message)] = received
        with pytest.raises(AttributeError):
            message.size = 0


class TestRpc:
    def test_basic_call(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("add", lambda a, b: a + b)
        client = RpcClient(sim, net, "client")
        result = sim.run_until_event(sim.process(client.call("server", "add", 2, 3)))
        assert result == 5

    def test_generator_handler(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def slow():
            yield sim.timeout(1.0)
            return "done"

        server.register("slow", slow)
        client = RpcClient(sim, net, "client")
        result = sim.run_until_event(sim.process(client.call("server", "slow")))
        assert result == "done"
        assert sim.now > 1.0

    @pytest.mark.parametrize("value", [0, None, "", 7])
    def test_plain_handler_replies_inside_the_delivery(self, value):
        # Falsy results are results too: the reply leaves from inside
        # the request's delivery, in the same kernel event.
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        handled_in = []
        server.register("get", lambda: handled_in.append(sim.events) or value)
        replied_in = reply_events(net)
        client = RpcClient(sim, net, "client")
        assert sim.run_until_event(sim.process(client.call("server", "get"))) == value
        assert replied_in == handled_in and len(handled_in) == 1

    def test_generator_handler_that_returns_at_once_replies_inside_the_delivery(self):
        # A generator handler is stepped inside the request's delivery,
        # so one that returns on its first step answers from that event.
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        handled_in = []

        def get():
            handled_in.append(sim.events)
            return 0
            yield  # a generator that returns at once

        server.register("get", get)
        replied_in = reply_events(net)
        client = RpcClient(sim, net, "client")
        assert sim.run_until_event(sim.process(client.call("server", "get"))) == 0
        assert replied_in == handled_in and len(handled_in) == 1

    def test_every_message_leaves_through_the_networks_send(self):
        # A wrapper installed on the instance after the server and the
        # client exist sees every request, notice and reply, errors
        # included: nothing holds a bound ``send`` of its own.
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("add", lambda a, b: a + b)

        def boom():
            raise ValueError("nope")

        def wait(not_ready):
            not_ready(sim.now + 1.0)
            yield sim.timeout(1.0)
            return "ready"

        server.register("boom", boom)
        server.register("wait", wait, not_ready=True)
        client = RpcClient(sim, net, "client")
        sent = []
        send = net.send

        def logged(src, dst, payload, size=256):
            sent.append((src, payload["kind"], payload.get("method")))
            send(src, dst, payload, size)

        net.send = logged
        outcomes = []
        for method, args in (("add", (2, 3)), ("boom", ()), ("missing", ()), ("wait", ())):
            client.invoke("server", method, args, lambda r, e: outcomes.append((r, type(e).__name__)))
        sim.run()
        assert sorted(outcomes, key=repr) == sorted(
            [(5, "NoneType"), (None, "RemoteError"), (None, "RemoteError"), ("ready", "NoneType")],
            key=repr,
        )
        requests = [entry for entry in sent if entry[1] == "rpc_request"]
        assert [method for _, _, method in requests] == ["add", "boom", "missing", "wait"]
        assert sorted(kind for src, kind, _ in sent if src == "server") == [
            "rpc_not_ready", *["rpc_response"] * 4
        ]
        assert net.delivered_count == len(sent) == 9

    def test_handler_interrupt_reaches_kernel_not_caller(self):
        # Regression: the dispatch loop once swallowed kernel Interrupts
        # in its broad handler and forwarded them as RPC errors.  A
        # teardown interrupt must propagate, not become a response.
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def stuck():
            poke = sim.event()
            sim.defer(0.5, lambda: poke.fail(Interrupt("teardown")))
            yield poke

        server.register("stuck", stuck)
        client = RpcClient(sim, net, "client")
        sim.process(client.call("server", "stuck", timeout=10.0))
        with pytest.raises(Interrupt):
            sim.run()
        assert server.requests_served == 0

    def test_remote_exception(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def boom():
            raise ValueError("nope")

        server.register("boom", boom)
        client = RpcClient(sim, net, "client")
        with pytest.raises(RemoteError, match="nope"):
            sim.run_until_event(sim.process(client.call("server", "boom")))

    def test_unknown_method(self):
        sim, net = make_net()
        RpcServer(sim, net, "server")
        client = RpcClient(sim, net, "client")
        with pytest.raises(RemoteError, match="no such method"):
            sim.run_until_event(sim.process(client.call("server", "missing")))

    def test_timeout_on_dead_server(self):
        sim, net = make_net()
        RpcServer(sim, net, "server")
        net.set_alive("server", False)
        client = RpcClient(sim, net, "client")
        with pytest.raises(RpcTimeout):
            sim.run_until_event(
                sim.process(client.call("server", "x", timeout=1.0))
            )
        assert sim.now == pytest.approx(1.0)

    def test_duplicate_handler_rejected(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("m", lambda: 1)
        with pytest.raises(ValueError):
            server.register("m", lambda: 2)

    def test_concurrent_calls(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("echo", lambda x: x)
        client = RpcClient(sim, net, "client")
        procs = [sim.process(client.call("server", "echo", i)) for i in range(10)]
        results = sim.run_until_event(sim.all_of(procs))
        assert results == list(range(10))

    def test_generator_handler_error_reaches_caller(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def failing():
            yield sim.timeout(1.0)
            raise ValueError("disk on fire")

        server.register("failing", failing)
        client = RpcClient(sim, net, "client")
        with pytest.raises(RemoteError, match="ValueError: disk on fire"):
            sim.run_until_event(sim.process(client.call("server", "failing")))
        assert server.requests_served == 1

    def test_late_reply_is_dropped(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def slow():
            yield sim.timeout(2.0)
            return "late"

        server.register("slow", slow)
        client = RpcClient(sim, net, "client")
        call = sim.process(client.call("server", "slow", timeout=1.0))
        with pytest.raises(RpcTimeout, match="slow to server timed out after 1.0s"):
            sim.run_until_event(call)
        sim.run()  # the reply lands after the deadline: dropped quietly
        assert server.requests_served == 1
        assert net.delivered_count == 2
        assert client._pending == {}

    def test_client_and_server_handle_their_own_kinds(self):
        # One address may host a server and a client; a second client on
        # it would claim the same responses, so it is refused.
        sim, net = make_net()
        server = RpcServer(sim, net, "node")
        server.register("echo", lambda x: x)
        client = RpcClient(sim, net, "node")
        result = sim.run_until_event(sim.process(client.call("node", "echo", 7)))
        assert result == 7
        with pytest.raises(ValueError):
            RpcClient(sim, net, "node")

    def test_plain_call_event_count(self):
        # Caller start, request delivery, reply delivery, the caller's
        # wake-up and its finish: an answered call files no deadline.
        with EventDigest().under() as digest:
            sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("add", lambda a, b: a + b)
        client = RpcClient(sim, net, "client")
        call = sim.process(client.call("server", "add", 2, 3))
        sim.run()
        assert call.value == 5
        assert digest.events == 5

    def test_generator_call_event_count(self):
        # The plain call's five events, plus the handler's timeout, from
        # which the reply leaves, and the deadline the server filed
        # while the handler waited.
        with EventDigest().under() as digest:
            sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def add(a, b):
            yield sim.timeout(1.0)
            return a + b

        server.register("add", add)
        client = RpcClient(sim, net, "client")
        call = sim.process(client.call("server", "add", 2, 3))
        sim.run()
        assert call.value == 5
        assert digest.events == 7

    def test_callback_call_costs_its_two_deliveries(self, monkeypatch):
        with EventDigest().under() as digest:
            sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("add", lambda a, b: a + b)
        client = RpcClient(sim, net, "client")
        events = []
        original = Event.__init__

        def counting_init(event, *args, **kwargs):
            events.append(type(event).__name__)
            original(event, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting_init)
        outcome = []
        client.invoke("server", "add", (2, 3), lambda result, error: outcome.append((sim.now, result, error)))
        sim.run()
        assert outcome == [(pytest.approx(0.4e-3 + 512 / net.bandwidth), 5, None)]
        assert digest.events == 2  # request and reply
        assert events == []

    def test_calls_with_one_timeout_expire_in_call_order_from_one_pop(self):
        with EventDigest().under() as digest:
            sim, net = make_net()
        net.add_node("void")  # accepts nothing: every call times out
        client = RpcClient(sim, net, "client")
        expired = []

        def record(tag):
            return lambda result, error: expired.append((tag, sim.now, type(error).__name__))

        sim.defer_at(0.1, lambda: client.invoke("void", "a", (), record("a"), timeout=0.7))
        sim.defer_at(0.1, lambda: client.invoke("void", "b", (), record("b"), timeout=0.7))
        sim.run()
        assert expired == [("a", 0.1 + 0.7, "RpcTimeout"), ("b", 0.1 + 0.7, "RpcTimeout")]
        # Two callers, two requests dropped on arrival, one deadline pop.
        assert digest.events == 5

    def test_overdue_calls_expire_in_deadline_order(self):
        sim, net = make_net()
        net.add_node("void")
        client = RpcClient(sim, net, "client")
        expired = []

        def record(tag):
            return lambda result, error: expired.append((tag, sim.now))

        sim.defer_at(0.1, lambda: client.invoke("void", "a", (), record("a"), timeout=0.7))
        sim.defer_at(0.3, lambda: client.invoke("void", "c", (), record("c"), timeout=0.2))
        sim.run()
        assert expired == [("c", 0.3 + 0.2), ("a", 0.1 + 0.7)]

    def test_calls_of_two_clients_time_out_at_their_own_deadlines(self):
        # One network, one timeout heap: each call still fails at its
        # own call time plus timeout, in deadline order across clients.
        sim, net = make_net()
        net.add_node("void")
        first, second = RpcClient(sim, net, "first"), RpcClient(sim, net, "second")
        expired = []

        def record(tag):
            return lambda result, error: expired.append((tag, sim.now, type(error).__name__))

        sim.defer_at(0.5, lambda: first.invoke("void", "a", (), record("first"), timeout=0.7))
        sim.defer_at(0.6, lambda: second.invoke("void", "b", (), record("second"), timeout=0.7))
        sim.run()
        assert expired == [("first", 0.5 + 0.7, "RpcTimeout"), ("second", 0.6 + 0.7, "RpcTimeout")]

    def test_answered_calls_of_four_clients_cost_no_deadline_pop(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("echo", lambda x: x)
        clients = [RpcClient(sim, net, f"client{i}") for i in range(4)]
        answered = []
        for step in range(5):
            for client in clients:
                sim.defer_at(
                    0.1 * step,
                    lambda client=client, step=step: client.invoke(
                        "server", "echo", (step,), lambda r, e: answered.append(e), timeout=1.0
                    ),
                )
        sim.run()
        calls = 5 * len(clients)
        assert answered == [None] * calls
        # Each call's invoke, request and reply; no call was filed.
        assert sim.events == 3 * calls
        assert net.rpc_timeouts._heap == []

    def notice_server(self, sim, net, ready_at, reply_at):
        """A server whose ``wait`` sends NOT READY naming ``ready_at``,
        then answers at ``reply_at`` (never, if ``None``)."""
        server = RpcServer(sim, net, "server")

        def wait(not_ready):
            not_ready(ready_at)
            yield sim.event() if reply_at is None else sim.timeout(reply_at - sim.now)
            return "ready"

        server.register("wait", wait, not_ready=True)
        return server

    def test_not_ready_moves_its_call_deadline_to_ready_at_plus_timeout(self):
        sim, net = make_net()
        self.notice_server(sim, net, ready_at=8.0, reply_at=10.9)
        client = RpcClient(sim, net, "client")
        outcome = []
        client.invoke("server", "wait", (), lambda *reply: outcome.append((sim.now, *reply)), timeout=3.0)
        sim.run(until=5.0)
        assert client._pending[1][0] == 8.0 + 3.0
        sim.run()
        assert outcome == [(pytest.approx(10.9 + 0.2e-3 + 256 / net.bandwidth), "ready", None)]

    def test_not_ready_never_moves_a_deadline_earlier(self):
        # "wait" is sent at 2.0 and due at 5.0; its notice names a ready
        # instant already past (1.0 + 3.0 = 4.0), so the pop that
        # expires "lost" at 4.5 must leave it alone.
        sim, net = make_net()
        self.notice_server(sim, net, ready_at=1.0, reply_at=None)
        net.add_node("void")
        client = RpcClient(sim, net, "client")
        outcome = []

        def record(tag):
            return lambda result, error: outcome.append((tag, sim.now, type(error).__name__))

        sim.defer_at(1.5, lambda: client.invoke("void", "lost", (), record("lost"), timeout=3.0))
        sim.defer_at(2.0, lambda: client.invoke("server", "wait", (), record("wait"), timeout=3.0))
        sim.run()
        assert outcome == [("lost", 4.5, "RpcTimeout"), ("wait", 5.0, "RpcTimeout")]

    def test_not_ready_leaves_other_calls_deadlines_alone(self):
        sim, net = make_net()
        self.notice_server(sim, net, ready_at=8.0, reply_at=9.0)
        net.add_node("void")  # answers nothing
        client = RpcClient(sim, net, "client")
        outcome = []

        def record(tag):
            return lambda result, error: outcome.append((tag, sim.now, type(error).__name__))

        client.invoke("server", "wait", (), record("wait"), timeout=3.0)
        client.invoke("void", "lost", (), record("lost"), timeout=3.0)
        sim.run()
        reply_lands = pytest.approx(9.0 + 0.2e-3 + 256 / net.bandwidth)
        assert outcome == [("lost", 3.0, "RpcTimeout"), ("wait", reply_lands, "NoneType")]

    def test_silent_server_times_out_at_the_first_deadline(self):
        # A handler that may send NOT READY but sends nothing: the call
        # times out on time, from the one armed deadline.
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def silent(not_ready):
            yield sim.event()

        server.register("silent", silent, not_ready=True)
        client = RpcClient(sim, net, "client")
        outcome = []

        def done(result, error):
            outcome.append((sim.now, type(error).__name__))

        client.invoke("server", "silent", (), done, timeout=3.0)
        sim.run()
        assert outcome == [(3.0, "RpcTimeout")]

    def test_not_ready_for_a_finished_call_is_dropped(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        notices = []

        def quick(not_ready):
            notices.append(not_ready)
            return "done"

        server.register("quick", quick, not_ready=True)
        client = RpcClient(sim, net, "client")
        result = sim.run_until_event(sim.process(client.call("server", "quick", timeout=3.0)))
        assert result == "done"
        (late,) = notices
        sent_at = sim.now
        late(100.0)  # lands after the reply: nothing is pending
        sim.run()
        assert client._pending == {}
        # The notice's delivery is the last event: no deadline after it.
        assert sim.now == pytest.approx(sent_at + 0.2e-3 + 256 / net.bandwidth)
        assert net.delivered_count == 3

    def test_answered_call_leaves_no_pending_deadline_work(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("echo", lambda x: x)
        client = RpcClient(sim, net, "client")
        outcomes = []
        for i in range(5):
            client.invoke("server", "echo", (i,), lambda r, e: outcomes.append((r, e)), timeout=1.0)
        sim.run()
        assert outcomes == [(i, None) for i in range(5)]
        assert sim.now < 1e-3  # the last reply; no deadline after it


class TestIscsi:
    def setup_stack(self):
        sim = Simulator()
        net = Network(sim, jitter=0.0)
        target = IscsiTargetServer(sim, net, "host0")
        disk = SimulatedDisk(sim, "disk0")
        target.expose("tgt-disk0", StorageVolume("vol0", disk, offset=0, length=100 * MB))
        initiator = IscsiInitiator(sim, net, "client0")
        return sim, net, target, disk, initiator

    def test_login_and_read(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            result = yield from session.read(0, 4 * MB)
            return result

        result = sim.run_until_event(sim.process(scenario()))
        assert result["ok"]
        assert disk.completed_ios == 1
        assert disk.bytes_read == 4 * MB

    def test_write(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            yield from session.write(0, 1 * MB)

        sim.run_until_event(sim.process(scenario()))
        assert disk.bytes_written == 1 * MB

    def test_login_missing_target(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            yield from initiator.login("host0", "no-such-target")

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_io_beyond_volume_rejected(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            yield from session.read(99 * MB, 4 * MB)

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_withdraw_breaks_session(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            target.withdraw("tgt-disk0")
            yield from session.read(0, 4 * KB)

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_host_death_times_out_session(self):
        sim, net, target, disk, initiator = self.setup_stack()
        initiator.io_timeout = 2.0

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            net.set_alive("host0", False)
            yield from session.read(0, 4 * KB)

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_read_from_spun_down_disk_waits_past_the_io_timeout(self):
        # Spin-up is a delay, not a failure: NOT READY moves the I/O's
        # deadline, and the one request is served once the disk is ready.
        sim, net, target, disk, initiator = self.setup_stack()
        initiator.io_timeout = 3.0
        disk.spin_down()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            start = sim.now
            yield from session.read(0, 1 * MB)
            return sim.now - start

        elapsed = sim.run_until_event(sim.process(scenario()))
        assert disk.spec.spin_up_time < elapsed < disk.spec.spin_up_time + 0.1
        assert disk.completed_ios == 1
        assert initiator.session_errors == 0

    def read_events(self, spun_down):
        """Events one 4 KiB read pops, issued from its own process after
        login."""
        with EventDigest().under() as digest:
            sim, net, target, disk, initiator = self.setup_stack()
        if spun_down:
            disk.spin_down()
        sessions = []

        def login():
            sessions.append((yield from initiator.login("host0", "tgt-disk0")))

        sim.process(login())
        sim.run()
        before = digest.events
        read = sim.process(sessions[0].read(0, 4 * KB))
        sim.run()
        assert read.value["ok"] and disk.completed_ios == 1
        return digest.events - before

    def test_read_from_a_spinning_disk_pops_its_messages_and_disk_work(self):
        # Caller start, request delivery (the target steps the handler
        # into the disk's service), the queue grant, the service
        # timeout (from which the reply leaves), reply delivery, the
        # caller's wake-up and finish, and the deadline filed while the
        # disk served.  No process runs the handler or the disk's work.
        assert self.read_events(spun_down=False) == 8

    def test_read_from_a_spun_down_disk_adds_the_spin_up_and_its_notice(self):
        # The spinning read's eight, plus the NOT READY delivery, the
        # spin-up's end and the event it fires.
        assert self.read_events(spun_down=True) == 11

    def test_target_death_after_not_ready_times_out_at_ready_plus_timeout(self):
        sim, net, target, disk, initiator = self.setup_stack()
        initiator.io_timeout = 3.0
        disk.spin_down()
        failed = []

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            sim.defer(1.0, lambda: net.set_alive("host0", False))
            ready_at = sim.now + disk.spec.spin_up_time  # within a hop
            try:
                yield from session.read(0, 1 * MB)
            except SessionError:
                failed.append((sim.now, ready_at))

        sim.run_until_event(sim.process(scenario()))
        ((when, ready_at),) = failed
        assert when == pytest.approx(ready_at + 3.0, abs=1e-3)

    def test_dead_target_with_spun_down_disk_times_out_on_time(self):
        # No notice leaves a dead host, so the 3 s probe is unchanged.
        sim, net, target, disk, initiator = self.setup_stack()
        initiator.io_timeout = 3.0
        disk.spin_down()
        failed = []

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            net.set_alive("host0", False)
            start = sim.now
            try:
                yield from session.read(0, 1 * MB)
            except SessionError:
                failed.append(sim.now - start)

        sim.run_until_event(sim.process(scenario()))
        assert failed == [pytest.approx(3.0)]

    def test_logout(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            yield from session.logout()
            assert not session.connected

        sim.run_until_event(sim.process(scenario()))

    def test_session_after_logout_rejected(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            yield from session.logout()
            yield from session.read(0, 4 * KB)

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_volume_translation(self):
        sim = Simulator()
        disk = SimulatedDisk(sim, "d")
        volume = StorageVolume("v", disk, offset=10 * MB, length=10 * MB)
        sim.run_until_event(sim.process(volume.serve(0, 4 * KB, is_read=True)))
        # The disk's sequential detector saw offset 10MB, not 0.
        assert disk._last_offset_end == 10 * MB + 4 * KB

    def test_double_expose_rejected(self):
        sim, net, target, disk, initiator = self.setup_stack()
        with pytest.raises(ValueError):
            target.expose("tgt-disk0", StorageVolume("v2", disk))


def registered_and_sent(package):
    """Scan ``package``'s sources: each RPC method registered with a
    string literal (``<server>.register("name", handler)``) mapped to
    where, and every string literal passed positionally to any other
    call (``call``, ``invoke``, ``leader_request``, ``_LeaderCall``,
    ``_master_call``, ``_call``, ...)."""
    registered = {}
    sent = set()
    for path in sorted(Path(package).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            literals = [
                arg
                for arg in node.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ]
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "register"
                and literals
                and literals[0] is node.args[0]
            ):
                where = f"{path.relative_to(package)}:{node.lineno}"
                registered.setdefault(literals[0].value, where)
            else:
                sent.update(arg.value for arg in literals)
    return registered, sent


def test_every_registered_rpc_method_has_a_sender():
    registered, sent = registered_and_sent(Path(repro.__file__).parent)
    assert "iscsi.io" in registered and "coord.watch" in registered
    unsent = sorted(
        f"{name} ({where})" for name, where in registered.items() if name not in sent
    )
    assert unsent == []
