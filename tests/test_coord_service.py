"""Integration tests for the replicated coordination service."""

import pytest

from repro.coord import CoordSession, Role, build_cluster
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def make_cluster(size=3, seed=1):
    sim = Simulator()
    net = Network(sim, jitter=0.0)
    replicas = build_cluster(sim, net, size=size, rng=RngRegistry(seed))
    return sim, net, replicas


def leader_of(replicas):
    leaders = [r for r in replicas if r.role is Role.LEADER and not r.crashed]
    return leaders[-1] if leaders else None


def run_session(sim, scenario):
    return sim.run_until_event(sim.process(scenario))


class TestElection:
    def test_exactly_one_leader_emerges(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        leaders = [r for r in replicas if r.role is Role.LEADER]
        assert len(leaders) == 1

    def test_leader_survives_steady_state(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        first = leader_of(replicas)
        sim.run(until=20.0)
        assert leader_of(replicas) is first
        assert first.current_epoch == leader_of(replicas).current_epoch

    def test_new_leader_after_crash(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        old = leader_of(replicas)
        old.crash()
        sim.run(until=15.0)
        new = leader_of(replicas)
        assert new is not None and new is not old
        assert new.current_epoch > old.current_epoch

    def test_recovered_replica_rejoins_as_follower(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        old = leader_of(replicas)
        old.crash()
        sim.run(until=15.0)
        old.recover()
        sim.run(until=25.0)
        assert old.role is not Role.LEADER
        leaders = [r for r in replicas if r.role is Role.LEADER]
        assert len(leaders) == 1

    def test_five_node_cluster(self):
        sim, net, replicas = make_cluster(size=5)
        sim.run(until=5.0)
        assert leader_of(replicas) is not None


class TestReplication:
    def test_write_then_read(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "client", [r.address for r in replicas])

        def scenario():
            yield from session.start()
            yield from session.create("/config", data={"units": 1})
            value = yield from session.get_data("/config")
            return value

        assert run_session(sim, scenario()) == {"units": 1}

    def test_committed_state_on_all_replicas(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "client", [r.address for r in replicas])

        def scenario():
            yield from session.start()
            yield from session.create("/x", data=42)

        run_session(sim, scenario())
        sim.run(until=sim.now + 2.0)  # let heartbeats propagate commits
        for replica in replicas:
            assert replica.tree.exists("/x"), replica.address
            assert replica.tree.get_data("/x") == 42

    def test_sequential_create_through_cluster(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "client", [r.address for r in replicas])

        def scenario():
            yield from session.start()
            yield from session.create("/queue")
            a = yield from session.create("/queue/n-", sequential=True)
            b = yield from session.create("/queue/n-", sequential=True)
            return (a, b)

        a, b = run_session(sim, scenario())
        assert a < b

    def test_state_survives_leader_failover(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "client", [r.address for r in replicas])

        def write():
            yield from session.start()
            yield from session.create("/durable", data="precious")

        run_session(sim, write())
        sim.run(until=sim.now + 1.0)
        leader_of(replicas).crash()
        sim.run(until=sim.now + 10.0)

        def read():
            value = yield from session.get_data("/durable")
            return value

        assert run_session(sim, read()) == "precious"

    def test_writes_work_after_failover(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "client", [r.address for r in replicas])
        run_session(sim, session.start())
        leader_of(replicas).crash()
        sim.run(until=sim.now + 10.0)

        def write():
            yield from session.create("/after", data=1)
            value = yield from session.get_data("/after")
            return value

        assert run_session(sim, write()) == 1

    def test_minority_crash_keeps_serving(self):
        sim, net, replicas = make_cluster(size=5)
        sim.run(until=5.0)
        followers = [r for r in replicas if r.role is not Role.LEADER]
        followers[0].crash()
        followers[1].crash()
        session = CoordSession(sim, net, "client", [r.address for r in replicas])

        def scenario():
            yield from session.start()
            yield from session.create("/still-up", data=True)
            result = yield from session.exists("/still-up")
            return result

        assert run_session(sim, scenario()) is True


NOOP = ("noop",)


def append(follower, epoch, start_index, prev_epoch, entries, leader_commit):
    """Deliver one ``coord.append_entries`` from ``coord1`` to ``follower``."""
    return follower._on_append_entries(
        epoch, "coord1", start_index, prev_epoch, entries, leader_commit
    )


class TestFollowerLog:
    """A follower keeps what it has acknowledged, as Raft's append rule does."""

    def test_late_append_keeps_the_entries_of_a_newer_one(self):
        sim, net, replicas = make_cluster()
        follower = replicas[0]
        assert append(follower, 1, 0, 0, [(1, 1, NOOP), (1, 2, NOOP)], 0) == (True, 1, 2)
        # The older append of entry 1 alone arrives last.
        reply = append(follower, 1, 0, 0, [(1, 1, NOOP)], 2)
        assert reply == (True, 1, 1)
        assert [(e.epoch, e.index) for e in follower.log] == [(1, 1), (1, 2)]
        assert follower.commit_index == 1  # bounded by what this append matched

    def test_newer_epoch_truncates_from_the_conflict(self):
        sim, net, replicas = make_cluster()
        follower = replicas[0]
        append(follower, 1, 0, 0, [(1, 1, NOOP), (1, 2, NOOP), (1, 3, NOOP)], 0)
        reply = append(follower, 2, 0, 0, [(1, 1, NOOP), (2, 2, NOOP)], 0)
        assert reply == (True, 2, 2)
        assert [(e.epoch, e.index) for e in follower.log] == [(1, 1), (2, 2)]

    def test_late_success_reply_lowers_no_leader_index(self, monkeypatch):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        leader = leader_of(replicas)
        peer = leader.peers[0]
        replies = []
        monkeypatch.setattr(
            leader.peer_rpc, "invoke", lambda target, method, args, done, **_: replies.append(done)
        )
        older = len(leader.log)
        leader._replicate_to(peer, leader.current_epoch)
        leader._propose(NOOP)
        leader._replicate_to(peer, leader.current_epoch)
        first, second = replies
        second((True, leader.current_epoch, older + 1), None)
        first((True, leader.current_epoch, older), None)
        assert leader._match_index[peer] == older + 1
        assert leader._next_index[peer] == older + 1

    def test_no_follower_log_shrinks_on_a_successful_append(self, monkeypatch):
        # At this seed an older append reaches both followers after a
        # newer one, 1.006 s in.
        from repro.cluster import DeploymentConfig, build_deployment
        from repro.coord import CoordReplica

        original = CoordReplica._on_append_entries
        shrunk = []

        def watched(replica, *args):
            before = len(replica.log)
            reply = original(replica, *args)
            if reply[0] and len(replica.log) < before:
                shrunk.append((replica.address, before, len(replica.log), replica.sim.now))
            return reply

        monkeypatch.setattr(CoordReplica, "_on_append_entries", watched)
        dep = build_deployment(config=DeploymentConfig(seed=205))
        dep.sim.run(until=2.0)
        assert shrunk == []


class TestEphemeralSessions:
    def test_ephemeral_removed_on_expiry(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "client", [r.address for r in replicas])

        def scenario():
            yield from session.start()
            yield from session.create("/hosts")
            yield from session.create("/hosts/me", ephemeral=True)

        run_session(sim, scenario())
        leader = leader_of(replicas)
        assert leader.tree.exists("/hosts/me")
        # Silence the client: its pings stop reaching the cluster.
        net.set_alive("client", False)
        sim.run(until=sim.now + 10.0)
        assert not leader_of(replicas).tree.exists("/hosts/me")

    def test_live_session_keeps_ephemeral(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "client", [r.address for r in replicas])

        def scenario():
            yield from session.start()
            yield from session.create("/hosts")
            yield from session.create("/hosts/me", ephemeral=True)

        run_session(sim, scenario())
        sim.run(until=sim.now + 10.0)
        assert leader_of(replicas).tree.exists("/hosts/me")

    def test_ephemeral_survives_leader_failover_with_live_client(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "client", [r.address for r in replicas])

        def scenario():
            yield from session.start()
            yield from session.create("/hosts")
            yield from session.create("/hosts/me", ephemeral=True)

        run_session(sim, scenario())
        leader_of(replicas).crash()
        sim.run(until=sim.now + 12.0)
        assert leader_of(replicas).tree.exists("/hosts/me")


class TestWatches:
    def test_data_watch_fires_on_change(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        writer = CoordSession(sim, net, "writer", [r.address for r in replicas])
        watcher = CoordSession(sim, net, "watcher", [r.address for r in replicas])
        fired = []

        def scenario():
            yield from writer.start()
            yield from watcher.start()
            yield from writer.create("/watched", data=0)
            yield from watcher.watch("/watched", lambda p, t: fired.append((p, t)))
            yield from writer.set_data("/watched", 1)
            yield sim.timeout(1.0)

        run_session(sim, scenario())
        assert fired == [("/watched", "changed")]

    def test_watch_is_one_shot(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        writer = CoordSession(sim, net, "writer", [r.address for r in replicas])
        watcher = CoordSession(sim, net, "watcher", [r.address for r in replicas])
        fired = []

        def scenario():
            yield from writer.start()
            yield from watcher.start()
            yield from writer.create("/watched", data=0)
            yield from watcher.watch("/watched", lambda p, t: fired.append(t))
            yield from writer.set_data("/watched", 1)
            yield sim.timeout(1.0)
            yield from writer.set_data("/watched", 2)
            yield sim.timeout(1.0)

        run_session(sim, scenario())
        assert fired == ["changed"]

    def test_delete_fires_node_watch(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        writer = CoordSession(sim, net, "writer", [r.address for r in replicas])
        watcher = CoordSession(sim, net, "watcher", [r.address for r in replicas])
        fired = []

        def scenario():
            yield from writer.start()
            yield from watcher.start()
            yield from writer.create("/doomed")
            yield from watcher.watch("/doomed", lambda p, t: fired.append(t))
            yield from writer.delete("/doomed")
            yield sim.timeout(1.0)

        run_session(sim, scenario())
        assert fired == ["deleted"]


    def test_each_kind_fires_only_its_own_callbacks(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        writer = CoordSession(sim, net, "writer", [r.address for r in replicas])
        watcher = CoordSession(sim, net, "watcher", [r.address for r in replicas])
        fired = []

        def scenario():
            yield from writer.start()
            yield from watcher.start()
            yield from writer.create("/p")
            yield from watcher.watch("/p", lambda p, t: fired.append(t))
            # A child's creation is not a change of its parent node.
            yield from writer.create("/p/kid")
            yield sim.timeout(1.0)
            yield from writer.set_data("/p", 1)
            yield sim.timeout(1.0)

        run_session(sim, scenario())
        assert fired == ["changed"]

    def test_watch_answers_what_it_observes(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "watcher", [r.address for r in replicas])

        def scenario():
            yield from session.start()
            absent = yield from session.watch("/w", lambda p, t: None)
            yield from session.create("/w", data=0)
            yield from session.set_data("/w", 1)
            version = yield from session.watch("/w", lambda p, t: None)
            return absent, version

        assert run_session(sim, scenario()) == (None, 1)

    def test_watch_missed_without_a_leader_fires_once_after_reregistration(self):
        # The watch lives on the leader that fails.  The watcher hears
        # from no server until the node is deleted through the next
        # leader; its first ping there re-registers the watch, which
        # observes the node gone and fires at once, and only once.
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        writer = CoordSession(sim, net, "writer", [r.address for r in replicas])
        watcher = CoordSession(sim, net, "watcher", [r.address for r in replicas])
        fired = []

        def setup():
            yield from writer.start()
            yield from watcher.start()
            yield from writer.create("/n", data=0)
            yield from watcher.watch("/n", lambda p, t: fired.append((p, t)))

        run_session(sim, setup())
        old = leader_of(replicas)
        for replica in replicas:
            net.partition("watcher", replica.address)
        old.crash()
        run_session(sim, writer.delete("/n"))
        assert leader_of(replicas) is not old and fired == []
        net.heal_all()
        sim.run(until=sim.now + 2.0)
        assert fired == [("/n", "deleted")]
        assert not watcher.expired
        run_session(sim, writer.create("/n"))
        sim.run(until=sim.now + 5.0)
        assert fired == [("/n", "deleted")]

    def test_lost_watch_event_fires_after_the_next_ping(self):
        # A short partition drops the event; the leader's next ping reply
        # counts one event more than the watcher heard, so the watcher
        # registers the watch again, sees the change and fires it.
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        writer = CoordSession(sim, net, "writer", [r.address for r in replicas])
        watcher = CoordSession(sim, net, "watcher", [r.address for r in replicas])
        fired = []

        def setup():
            yield from writer.start()
            yield from watcher.start()
            yield from writer.create("/n", data=0)
            yield from watcher.watch("/n", lambda p, t: fired.append((p, t)))

        run_session(sim, setup())
        leader = leader_of(replicas)
        net.partition("watcher", leader.address)
        run_session(sim, writer.set_data("/n", 1))
        net.heal("watcher", leader.address)
        assert fired == []
        sim.run(until=sim.now + 1.0)
        assert fired == [("/n", "changed")]
        assert leader_of(replicas) is leader

    def test_watch_whose_registration_fails_is_dropped(self):
        from repro.net import RpcTimeout

        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        watcher = CoordSession(sim, net, "watcher", [r.address for r in replicas])
        # The cluster keeps the session through the walk below, so the
        # watcher's pings are answered again once it is reconnected.
        watcher.session_timeout = 60.0
        run_session(sim, watcher.start())
        # Cut off from every replica, the registration's leader walk
        # gives up.
        for replica in replicas:
            net.partition("watcher", replica.address)
        with pytest.raises(RpcTimeout):
            run_session(sim, watcher.watch("/", lambda p, t: None))
        net.heal_all()
        watches = []
        send = net.send

        def logged(src, dst, payload, size=256):
            if src == "watcher" and payload.get("method") == "coord.watch":
                watches.append(dst)
            send(src, dst, payload, size)

        net.send = logged
        leader_of(replicas).crash()
        sim.run(until=sim.now + 5.0)
        assert leader_of(replicas) is not None and watches == []
        assert not watcher.expired


class TestLeaderCall:
    """The session's leader walk, against scripted stand-in servers."""

    def setup(self, reply):
        from repro.net import RpcServer

        sim = Simulator()
        net = Network(sim, jitter=0.0)
        contacted = []
        for name in ("a", "b", "c"):
            server = RpcServer(sim, net, name)

            def handler(*args, name=name):
                contacted.append((name, sim.now))
                return reply(name)

            server.register("coord.read", handler)
        session = CoordSession(sim, net, "client", ["a", "b", "c"])
        return sim, net, session, contacted

    def test_follows_not_leader_hint_after_backoff(self):
        from repro.coord.service import NotLeaderError

        def reply(name):
            if name != "c":
                raise NotLeaderError("c")
            return "found"

        sim, net, session, contacted = self.setup(reply)
        net.partition("client", "c")  # the leader is unreachable in round 1
        sim.defer_at(1.1, lambda: net.heal("client", "c"))
        result = run_session(sim, session._leader_call("coord.read", "get", "/x"))
        assert result == "found"
        # Round 1: a and b point at c, which times out after 1 s; round 2
        # starts at the hinted server 0.25 s later.
        one_way = net.latency + 256 / net.bandwidth
        sent_c = contacted[1][1] + one_way  # c was tried on b's reply
        assert [name for name, _ in contacted] == ["a", "b", "c"]
        assert contacted[2][1] == pytest.approx(sent_c + 1.0 + 0.25 + one_way)
        assert session._leader_guess == "c"

    def test_backs_off_between_rounds_and_gives_up(self):
        from repro.coord.service import NotLeaderError
        from repro.net import RemoteError

        def reply(name):
            raise NotLeaderError(None)

        sim, net, session, contacted = self.setup(reply)
        with pytest.raises(RemoteError, match="NotLeader"):
            run_session(sim, session._leader_call("coord.read", "get", "/x", retries=2))
        rounds = [contacted[:3], contacted[3:]]
        assert [[name for name, _ in r] for r in rounds] == [["a", "b", "c"]] * 2
        round_trip = 2 * (net.latency + 256 / net.bandwidth)
        assert rounds[1][0][1] == pytest.approx(rounds[0][2][1] + round_trip + 0.25)
        # After the last round it still waits out the backoff before failing.
        assert sim.now == pytest.approx(rounds[1][2][1] + net.latency + 256 / net.bandwidth + 0.25)

    def test_unknown_session_expires_the_session(self):
        from repro.coord import SessionExpiredError
        from repro.coord.znode import ZnodeError

        def reply(name):
            raise ZnodeError("unknown session 'session:client'")

        sim, net, session, contacted = self.setup(reply)
        with pytest.raises(SessionExpiredError):
            run_session(sim, session._leader_call("coord.read", "get", "/x"))
        assert session.expired
        assert [name for name, _ in contacted] == ["a"]


class TestLease:
    def test_lease_lapses_before_the_cluster_expires_the_session(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "leased", [r.address for r in replicas])
        run_session(sim, session.start())
        pings = []
        send = net.send

        def logged(src, dst, payload, size=256):
            if src == "leased" and payload.get("method") == "coord.ping_session":
                pings.append(sim.now)
            send(src, dst, payload, size)

        net.send = logged
        lapsed = []
        session.on_lapse(lambda: lapsed.append(sim.now))
        sim.run(until=sim.now + 3.0)
        # Acknowledged pings renew it; one every third of the session
        # timeout after the last reply.
        assert lapsed == [] and len(pings) == 4
        cut = pings[-1] + 0.25  # between two pings; the last one was answered
        sim.run(until=cut)
        for replica in replicas:
            net.partition("leased", replica.address)
        acked = pings[-1]
        sim.run(until=acked + session.session_timeout)
        assert lapsed == [acked + session.session_timeout]
        leader = leader_of(replicas)
        assert session.session_id in leader._session_timeouts  # not yet expired
        sim.run(until=sim.now + 10.0)
        assert session.session_id not in leader_of(replicas)._session_timeouts
        assert lapsed == [acked + session.session_timeout]  # fires once

    def test_lease_is_not_armed_without_a_listener(self):
        sim, net, replicas = make_cluster()
        sim.run(until=5.0)
        session = CoordSession(sim, net, "quiet", [r.address for r in replicas])
        run_session(sim, session.start())
        assert not session._lease.armed
        session.on_lapse(lambda: None)
        assert session._lease.armed
        session.on_lapse(None)
        assert not session._lease.armed
