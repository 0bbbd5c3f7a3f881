"""Integration tests for the full UStore management stack (Figure 3)."""

from collections import Counter

import pytest

from repro.cluster import (
    HostStatus,
    build_deployment,
    format_space_id,
    parse_space_id,
    space_znode_path,
    target_name,
)
from repro.cluster.namespace import MASTER_POINTER
from repro.coord import Role
from repro.workload import KB, MB

#: An idle deployment's sends per 100 sim-s after ``settle()``, by RPC
#: method or message kind: the coordination leader's appends, the two
#: Master sessions' pings, the EndPoints' heartbeats, and the replies.
IDLE_SENDS = {
    "coord.append_entries": 800,
    "coord.ping_session": 300,
    "master.heartbeat": 800,
    "rpc_response": 1_900,
}
#: Kernel events the same 100 sim-s pop: exact for the code, like the sends.
IDLE_EVENTS = 5_822


@pytest.fixture(scope="module")
def settled():
    """One settled deployment shared by read-only assertions."""
    dep = build_deployment()
    dep.settle(15.0)
    return dep


def fresh():
    dep = build_deployment()
    dep.settle(15.0)
    return dep


class TestNamespace:
    def test_space_id_round_trip(self):
        sid = format_space_id("unit0", "disk3", 5)
        assert sid == "/unit0/disk3/space5"
        assert parse_space_id(sid) == ("unit0", "disk3", 5)

    def test_bad_space_ids(self):
        with pytest.raises(ValueError):
            parse_space_id("/unit0/disk3")
        with pytest.raises(ValueError):
            parse_space_id("/unit0/disk3/blob5")
        with pytest.raises(ValueError):
            format_space_id("a/b", "disk0", 0)
        with pytest.raises(ValueError):
            format_space_id("unit0", "disk0", -1)

    def test_target_name(self):
        assert target_name("/unit0/disk3/space5") == "iqn.ustore:unit0.disk3.space5"

    def test_znode_path(self):
        assert space_znode_path("/unit0/disk3/space5") == (
            "/ustore/storalloc/unit0_disk3_space5"
        )


class TestBootstrap:
    def test_master_becomes_active(self, settled):
        assert settled.active_master() is not None

    def test_single_active_master(self, settled):
        actives = [m for m in settled.masters if m.active]
        assert len(actives) == 1

    def test_all_hosts_online(self, settled):
        master = settled.active_master()
        assert set(master.sysstat.online_hosts()) == {f"host{i}" for i in range(4)}

    def test_sysstat_matches_fabric(self, settled):
        master = settled.active_master()
        for disk_id, host in settled.fabric.attachment_map().items():
            assert master.sysstat.disk_to_host[disk_id] == host

    def test_endpoints_heartbeat(self, settled):
        assert all(e.heartbeats_sent > 0 for e in settled.endpoints.values())

    def test_endpoints_hold_no_coordination_session(self, monkeypatch):
        # Liveness is the heartbeat stream the Master watches: from the
        # build on, an EndPoint only reads the master pointer, and never
        # opens a session or writes a znode.
        dep = build_deployment()
        coord_addresses = {e.coord.address for e in dep.endpoints.values()}
        sent = Counter()
        send = dep.network.send

        def logged(src, dst, payload, size=256):
            if src in coord_addresses:
                sent[(payload["method"],) + tuple(payload["args"])] += 1
            send(src, dst, payload, size)

        monkeypatch.setattr(dep.network, "send", logged)
        dep.settle()
        dep.sim.run(until=dep.sim.now + 100.0)
        assert set(sent) == {("coord.read", "get", MASTER_POINTER)}
        assert not any(e.coord.started for e in dep.endpoints.values())

    def test_idle_control_plane_cost(self, monkeypatch):
        # An idle deployment's traffic is set by its timers alone.  The
        # message counts by kind are exact; the event count is pinned at
        # what the armed-deadline timers and the message path pop, so a
        # timer that polls again, or any regression in the plumbing
        # beneath the messages, shows up here.
        from repro.net.rpc import RpcTimeouts

        fired = []
        fire = RpcTimeouts._fire
        monkeypatch.setattr(
            RpcTimeouts, "_fire", lambda timeouts: fired.append(1) or fire(timeouts)
        )
        dep = build_deployment()
        dep.settle()
        sent = Counter()
        send = dep.network.send

        def counted(src, dst, payload, size=256):
            sent[payload.get("method", payload["kind"])] += 1
            send(src, dst, payload, size)

        monkeypatch.setattr(dep.network, "send", counted)
        events_before, fired_before = dep.sim.events, len(fired)
        dep.sim.run(until=dep.sim.now + 100.0)
        assert sent == IDLE_SENDS
        assert dep.sim.events - events_before == IDLE_EVENTS
        # Every idle call is answered in time, so none files a deadline.
        assert len(fired) == fired_before
        assert dep.network.rpc_timeouts._heap == []

    def test_mounted_gateway_client_adds_no_idle_traffic(self, monkeypatch):
        # A ClientLib reads where the Master is without a coordination
        # session, so mounting a gateway's spaces opens none and leaves
        # the idle traffic as a bare deployment's.
        from repro.gateway import mount_gateway_spaces

        dep = build_deployment()
        dep.settle()
        sent = []
        send = dep.network.send

        def logged(src, dst, payload, size=256):
            sent.append((src, payload))
            send(src, dst, payload, size)

        monkeypatch.setattr(dep.network, "send", logged)
        mount_gateway_spaces(dep, 64 * MB)
        operations = [
            payload["args"][0][0]
            for _, payload in sent
            if payload.get("method") == "coord.client_op"
        ]
        assert operations and "create_session" not in operations
        dep.run_to_whole_second()
        sent.clear()
        events_before = dep.sim.events
        dep.sim.run(until=dep.sim.now + 100.0)
        assert Counter(p.get("method", p["kind"]) for _, p in sent) == IDLE_SENDS
        # Its window starts a second later, so it holds two more
        # election-timer pops, and two RPC deadline pops for calls to
        # generator handlers made while mounting (filed and answered
        # before the window, due inside it).
        assert dep.sim.events - events_before == IDLE_EVENTS + 4
        assert not any(src.startswith("gateway0") for src, _ in sent)

    def test_idle_election_polls_and_appends(self, monkeypatch):
        # The active Master waits for its step-down and the standby for
        # its watch on the active's election node, so neither polls the
        # election; the coordination leader heartbeats every half
        # election timeout.
        dep = build_deployment()
        dep.settle()
        active = dep.active_master()
        standby = [m for m in dep.masters if m is not active][0]
        leader = [r for r in dep.coord_replicas if r.role is Role.LEADER][0]
        polls, appends = Counter(), Counter()
        send = dep.network.send

        def counted(src, dst, payload, size=256):
            method = payload.get("method")
            if method == "coord.read" and payload["args"][0] == "children":
                polls[src] += 1
            elif method == "coord.append_entries":
                appends[dst] += 1
            send(src, dst, payload, size)

        monkeypatch.setattr(dep.network, "send", counted)
        dep.sim.run(until=dep.sim.now + 100.0)
        assert polls[active.coord.address] == 0
        assert polls[standby.coord.address] == 0
        assert appends == {peer: 400 for peer in leader.peers}


class TestAllocation:
    def test_allocate_and_mount(self):
        dep = fresh()
        client = dep.new_client("app", service="svc1")

        def scenario():
            info = yield from client.allocate(64 * MB)
            space = yield from client.mount(info["space_id"])
            yield from space.write(0, 1 * MB)
            result = yield from space.read(0, 1 * MB)
            return info, space, result

        info, space, result = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert result["ok"]
        assert space.stats.reads == 1 and space.stats.writes == 1
        unit, disk, index = parse_space_id(info["space_id"])
        assert unit == "unit0" and index == 0

    def test_storalloc_persisted_in_coord(self):
        dep = fresh()
        client = dep.new_client("app", service="svc1")

        def scenario():
            info = yield from client.allocate(64 * MB)
            return info

        info = dep.sim.run_until_event(dep.sim.process(scenario()))
        dep.settle(3.0)
        leader = [r for r in dep.coord_replicas if r.role is Role.LEADER][0]
        path = space_znode_path(info["space_id"])
        assert leader.tree.exists(path)
        assert leader.tree.get_data(path)["space_id"] == info["space_id"]

    def test_same_service_affinity(self):
        """§IV-A rule 1: a disk is preferentially filled by one service."""
        dep = fresh()
        client = dep.new_client("app", service="svc1")

        def scenario():
            first = yield from client.allocate(10 * MB)
            second = yield from client.allocate(10 * MB)
            return first, second

        first, second = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert parse_space_id(first["space_id"])[1] == parse_space_id(second["space_id"])[1]

    def test_different_services_get_different_disks(self):
        """§IV-A rule 1, contrapositive: avoid mixing services."""
        dep = fresh()
        a = dep.new_client("app-a", service="svc-a")
        b = dep.new_client("app-b", service="svc-b")

        def scenario():
            first = yield from a.allocate(10 * MB)
            second = yield from b.allocate(10 * MB)
            return first, second

        first, second = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert parse_space_id(first["space_id"])[1] != parse_space_id(second["space_id"])[1]

    def test_locality_hint(self):
        """§IV-A rule 2: prefer a disk near the client."""
        dep = fresh()
        client = dep.new_client("app", service="svc1")

        def scenario():
            info = yield from client.allocate(10 * MB, locality_hint="host3")
            return info

        info = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert info["host_id"] == "host3"

    def test_spaces_on_same_disk_do_not_overlap(self):
        dep = fresh()
        client = dep.new_client("app", service="svc1")

        def scenario():
            first = yield from client.allocate(10 * MB)
            second = yield from client.allocate(10 * MB)
            return first, second

        first, second = dep.sim.run_until_event(dep.sim.process(scenario()))
        master = dep.active_master()
        r1 = master.records[first["space_id"]]
        r2 = master.records[second["space_id"]]
        if r1.disk_id == r2.disk_id:
            assert r1.offset + r1.length <= r2.offset or r2.offset + r2.length <= r1.offset

    def test_concurrent_allocations_get_disjoint_extents(self):
        """Two allocations that arrive within one StorAlloc commit see
        each other: the first reserves its extent before committing."""
        dep = fresh()
        clients = [dep.new_client(f"app{i}", service="svc") for i in range(2)]
        calls = [dep.sim.process(client.allocate(32 * MB)) for client in clients]
        infos = dep.sim.run_until_event(dep.sim.all_of(calls))
        master = dep.active_master()
        r1, r2 = (master.records[info["space_id"]] for info in infos)
        assert r1.space_id != r2.space_id
        if r1.disk_id == r2.disk_id:
            assert r1.offset + r1.length <= r2.offset or r2.offset + r2.length <= r1.offset

    def test_failed_commit_releases_reserved_extent(self, monkeypatch):
        dep = fresh()
        client = dep.new_client("app", service="svc")
        master = dep.active_master()
        from repro.net import RemoteError

        def refuse(path, data=None, ephemeral=False, sequential=False):
            raise RemoteError("coordination unavailable")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(master.coord, "create", refuse)
        with pytest.raises(RemoteError):
            dep.sim.run_until_event(dep.sim.process(client.allocate(32 * MB)))
        assert master.records == {}

    def test_release_withdraws_target(self):
        dep = fresh()
        client = dep.new_client("app", service="svc1")

        def scenario():
            info = yield from client.allocate(10 * MB)
            yield from client.mount(info["space_id"])
            ok = yield from client.release(info["space_id"])
            return info, ok

        info, ok = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert ok
        assert info["space_id"] not in dep.active_master().records
        endpoint = dep.endpoints[info["host_id"]]
        assert target_name(info["space_id"]) not in endpoint.targets.exposed_targets()

    def test_oversized_allocation_fails(self):
        dep = fresh()
        client = dep.new_client("app", service="svc1")
        from repro.net import RemoteError

        def scenario():
            yield from client.allocate(100 * 10**12)  # 100 TB > any disk

        with pytest.raises(RemoteError, match="AllocationError"):
            dep.sim.run_until_event(dep.sim.process(scenario()))


class TestHostFailover:
    def test_disks_move_off_dead_host(self):
        dep = fresh()
        master = dep.active_master()
        victims = master.sysstat.disks_on_host("host1")
        assert len(victims) == 4
        dep.crash_host("host1")
        dep.settle(15.0)
        master = dep.active_master()
        assert master.sysstat.host_status["host1"] is HostStatus.CRASHED
        for disk in victims:
            new_host = dep.fabric.attached_host(disk)
            assert new_host is not None and new_host != "host1"
        assert master.failovers_completed == 1

    def test_client_io_survives_host_failure(self):
        dep = fresh()
        client = dep.new_client("app", service="svc1")

        def setup():
            info = yield from client.allocate(64 * MB)
            space = yield from client.mount(info["space_id"])
            yield from space.write(0, 1 * MB)
            return info, space

        info, space = dep.sim.run_until_event(dep.sim.process(setup()))
        dep.crash_host(info["host_id"])
        start = dep.sim.now

        def after():
            result = yield from space.write(1 * MB, 1 * MB)
            return result

        result = dep.sim.run_until_event(dep.sim.process(after()))
        assert result["ok"]
        assert space.stats.remounts == 1
        assert space.current_host != info["address"]
        # The paper reports ~5.8s single-host recovery; the client sees
        # the outage as one slow write of the same order of magnitude.
        assert dep.sim.now - start < 20.0

    def test_status_callbacks_fire(self):
        dep = fresh()
        client = dep.new_client("app", service="svc1")
        events = []
        client.on_status_change(lambda sid, ev: events.append(ev))

        def setup():
            info = yield from client.allocate(64 * MB)
            space = yield from client.mount(info["space_id"])
            return info, space

        info, space = dep.sim.run_until_event(dep.sim.process(setup()))
        dep.crash_host(info["host_id"])

        def after():
            yield from space.read(0, 4 * KB)

        dep.sim.run_until_event(dep.sim.process(after()))
        assert "remounting" in events and "remounted" in events

    def test_master_failover(self):
        dep = fresh()
        active = dep.active_master()
        standby = [m for m in dep.masters if m is not active][0]
        active.crash()
        dep.settle(20.0)
        assert standby.active
        client = dep.new_client("app", service="svc1")

        def scenario():
            info = yield from client.allocate(10 * MB)
            return info

        info = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert info["space_id"]

    def test_clientlib_finds_the_standby_after_the_master_crashes(self):
        # The client learned the Master before the crash; with no session
        # of its own it reads MASTER_POINTER again once the old one
        # stops answering, and reaches the standby that took over.
        dep = fresh()
        client = dep.new_client("app", service="svc1")
        active = dep.active_master()
        standby = [m for m in dep.masters if m is not active][0]

        def setup():
            info = yield from client.allocate(10 * MB)
            return info

        info = dep.sim.run_until_event(dep.sim.process(setup()))
        assert client._master_address == active.address
        active.crash()

        def lookup():
            address = yield from client.lookup_host(info["space_id"])
            return address

        address = dep.sim.run_until_event(dep.sim.process(lookup()))
        assert standby.active and client._master_address == standby.address
        assert address == standby.sysconf.host_addresses[info["host_id"]]
        assert not client.coord.started

    def test_new_master_reloads_storalloc(self):
        dep = fresh()
        client = dep.new_client("app", service="svc1")

        def setup():
            info = yield from client.allocate(64 * MB)
            return info

        info = dep.sim.run_until_event(dep.sim.process(setup()))
        active = dep.active_master()
        standby = [m for m in dep.masters if m is not active][0]
        active.crash()
        dep.settle(20.0)
        assert standby.active
        assert info["space_id"] in standby.records

    def test_host_dark_past_the_session_timeout_heartbeats_again(self, monkeypatch):
        # Dark for 30 s, far past SESSION_TIMEOUT, host1 has no session
        # to lose: within 2 s of recovering it heartbeats the active
        # Master again, and it only ever reads from the coordination
        # service, never writes or pings.
        dep = build_deployment()
        dep.settle()
        endpoint = dep.endpoints["host1"]
        methods = set()
        send = dep.network.send

        def logged(src, dst, payload, size=256):
            if src == endpoint.coord.address:
                methods.add(payload["method"])
            send(src, dst, payload, size)

        monkeypatch.setattr(dep.network, "send", logged)
        dep.crash_host("host1")
        dep.sim.run(until=dep.sim.now + 30.0)
        master = dep.active_master()
        assert master.sysstat.host_status["host1"] is HostStatus.CRASHED
        recovered_at = dep.sim.now
        dep.recover_host("host1")
        dep.sim.run(until=recovered_at + 2.0)
        assert master.sysstat.last_heartbeat["host1"] > recovered_at
        assert master.sysstat.host_status["host1"] is HostStatus.ONLINE
        assert methods == {"coord.read"}

    def test_endpoints_find_the_standby_after_the_master_crashes(self):
        # Each EndPoint's heartbeat to the crashed Master fails, so it
        # reads MASTER_POINTER again until the standby has taken it
        # over; the standby hears every host in time and fails none over.
        dep = fresh()
        active = dep.active_master()
        standby = [m for m in dep.masters if m is not active][0]
        assert all(e._master_address == active.address for e in dep.endpoints.values())
        active.crash()
        dep.settle(20.0)
        assert standby.active
        assert all(e._master_address == standby.address for e in dep.endpoints.values())
        assert set(standby.sysstat.online_hosts()) == {f"host{i}" for i in range(4)}
        assert standby.failovers_completed == 0

    def test_dead_host_recovers_as_online(self):
        dep = fresh()
        dep.crash_host("host1")
        dep.settle(15.0)
        dep.recover_host("host1")
        dep.settle(10.0)
        master = dep.active_master()
        assert master.sysstat.host_status["host1"] is HostStatus.ONLINE


def _coord_leader(dep):
    return [r for r in dep.coord_replicas if r.role is Role.LEADER and not r.crashed][0]


def _takeover_seconds(dep, limit=20.0):
    """Crash the active Master; seconds until the standby is active, or
    None if it is not within ``limit``."""
    active = dep.active_master()
    standby = [m for m in dep.masters if m is not active][0]
    active.crash()
    crashed_at = dep.sim.now
    while dep.sim.now - crashed_at < limit:
        dep.sim.step()
        if standby.active:
            return dep.sim.now - crashed_at
    return None


class TestMasterTakeover:
    # The standby watches the active Master's election node, so it reads
    # the election as soon as the cluster expires the crashed Master's
    # session.  The bounds are the takeover times of a standby that
    # polled the election once a second.
    @pytest.mark.parametrize(
        "delay, bound", [(0.0, 2.77), (0.3, 2.47), (0.6, 2.17), (0.9, 2.87)]
    )
    def test_standby_takes_over_no_later_than_a_polling_one(self, delay, bound):
        dep = build_deployment()
        dep.settle()
        dep.sim.run(until=dep.sim.now + delay)
        took = _takeover_seconds(dep)
        assert took is not None and took <= bound

    def test_standby_takes_over_after_a_coordination_failover(self):
        # The standby's watch was accepted by the coordination leader that
        # fails; its session registers it again on the next leader.
        dep = build_deployment()
        dep.settle()
        _coord_leader(dep).crash()
        dep.sim.run(until=dep.sim.now + 10.0)
        took = _takeover_seconds(dep)
        assert took is not None and took <= 3.0

    def test_standby_takes_over_when_its_watch_event_is_lost(self):
        # A 0.1 s partition drops the event for the crashed Master's
        # node; the next ping reply tells the standby's session that an
        # event never arrived, and the re-registered watch fires.
        dep = build_deployment()
        dep.settle()
        active = dep.active_master()
        standby = [m for m in dep.masters if m is not active][0]
        active.crash()
        dep.sim.run(until=dep.sim.now + 1.5)
        for replica in dep.coord_replicas:
            dep.network.partition(standby.coord.address, replica.address)
        dep.sim.run(until=dep.sim.now + 0.1)
        dep.network.heal_all()
        dep.sim.run(until=dep.sim.now + 2.0)
        assert standby.active and not standby.coord.expired

    @pytest.mark.parametrize("delay", [2.17, 2.5, 2.8, 3.1])
    def test_coordination_failover_leaves_a_master_active(self, delay):
        # The active Master steps down only when no ping was acknowledged
        # for a session timeout; at the ping cadence a coordination-leader
        # failover ends well inside that lease.
        dep = build_deployment()
        dep.settle()
        dep.sim.run(until=dep.sim.now + delay)
        _coord_leader(dep).crash()
        end = dep.sim.now + 20.0
        while dep.sim.now < end:
            dep.sim.step()
            assert dep.active_master() is not None


class TestControllerPath:
    def test_explicit_command_moves_disk(self):
        dep = fresh()
        from repro.net import RpcClient

        rpc = RpcClient(dep.sim, dep.network, "tester")

        def scenario():
            result = yield from rpc.call(
                "unit0.controller0",
                "controller.execute",
                dep.active_master().token,
                [("disk0", "host2")],
                timeout=40.0,
            )
            return result

        result = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert result["turned"]
        assert dep.fabric.attached_host("disk0") == "host2"
        dep.settle(5.0)
        assert "disk0" in dep.bus.os_view("host2")

    def test_conflicting_command_reports_error(self):
        dep = fresh()
        from repro.net import RemoteError, RpcClient

        rpc = RpcClient(dep.sim, dep.network, "tester")

        def scenario():
            yield from rpc.call(
                "unit0.controller0",
                "controller.execute",
                dep.active_master().token,
                [("disk0", "host1")],  # drags disk1: Algorithm 1 conflict
                timeout=40.0,
            )

        with pytest.raises(RemoteError, match="conflict"):
            dep.sim.run_until_event(dep.sim.process(scenario()))

    def test_fabric_lock_serializes_commands(self):
        dep = fresh()
        from repro.net import RpcClient

        rpc = RpcClient(dep.sim, dep.network, "tester")
        done = []

        def command(pairs):
            result = yield from rpc.call(
                "unit0.controller0",
                "controller.execute",
                dep.active_master().token,
                pairs,
                timeout=60.0,
            )
            done.append(dep.sim.now)
            return result

        p1 = dep.sim.process(command([("disk0", "host2")]))
        p2 = dep.sim.process(command([("disk4", "host0")]))
        dep.sim.run_until_event(dep.sim.all_of([p1, p2]))
        assert len(done) == 2
        assert dep.fabric.attached_host("disk0") == "host2"
        assert dep.fabric.attached_host("disk4") == "host0"

    def test_control_plane_xor_failover(self):
        dep = fresh()
        states_before = {s.node_id: s.state for s in dep.fabric.switches}
        dep.control_plane.primary.failed = True
        dep.control_plane.failover_to_backup()
        states_after = {s.node_id: s.state for s in dep.fabric.switches}
        assert states_before == states_after  # takeover glitches nothing
        dep.control_plane.set_switch("disksw0", 1)
        assert dep.fabric.node("disksw0").state == 1
