"""Network partitions against the coordination service and deployment."""

import pytest

from repro.coord import CoordSession, Role, build_cluster
from repro.net import Network
from repro.sim import RngRegistry, Simulator


def make_cluster(size=3, seed=2):
    sim = Simulator()
    net = Network(sim, jitter=0.0)
    replicas = build_cluster(sim, net, size=size, rng=RngRegistry(seed))
    sim.run(until=5.0)
    return sim, net, replicas


def leader_of(replicas):
    leaders = [r for r in replicas if r.role is Role.LEADER and not r.crashed]
    return leaders[-1] if leaders else None


class TestCoordPartitions:
    def test_isolated_leader_is_replaced(self):
        sim, net, replicas = make_cluster()
        old = leader_of(replicas)
        for other in replicas:
            if other is not old:
                net.partition(old.address, other.address)
                net.partition(f"{old.address}.peerclient", other.address)
                net.partition(old.address, f"{other.address}.peerclient")
        sim.run(until=sim.now + 10.0)
        majority_leaders = [
            r for r in replicas if r.role is Role.LEADER and r is not old
        ]
        assert len(majority_leaders) == 1
        assert majority_leaders[0].current_epoch > old.current_epoch

    def test_old_leader_steps_down_after_heal(self):
        sim, net, replicas = make_cluster()
        old = leader_of(replicas)
        for other in replicas:
            if other is not old:
                net.partition(old.address, other.address)
                net.partition(f"{old.address}.peerclient", other.address)
                net.partition(old.address, f"{other.address}.peerclient")
        sim.run(until=sim.now + 10.0)
        net.heal_all()
        sim.run(until=sim.now + 10.0)
        leaders = [r for r in replicas if r.role is Role.LEADER]
        assert len(leaders) == 1
        assert leaders[0] is not old

    def test_writes_during_partition_survive_heal(self):
        sim, net, replicas = make_cluster()
        old = leader_of(replicas)
        for other in replicas:
            if other is not old:
                net.partition(old.address, other.address)
                net.partition(f"{old.address}.peerclient", other.address)
                net.partition(old.address, f"{other.address}.peerclient")
        sim.run(until=sim.now + 10.0)
        session = CoordSession(sim, net, "pclient", [r.address for r in replicas])

        def scenario():
            yield from session.start()
            yield from session.create("/partition-write", data=1)

        sim.run_until_event(sim.process(scenario()))
        net.heal_all()
        sim.run(until=sim.now + 10.0)
        # The write committed on the majority side and survives healing
        # on whoever leads now.
        current = leader_of(replicas)
        assert current.tree.exists("/partition-write")

    def test_minority_partition_cannot_commit(self):
        sim, net, replicas = make_cluster()
        old = leader_of(replicas)
        for other in replicas:
            if other is not old:
                net.partition(old.address, other.address)
                net.partition(f"{old.address}.peerclient", other.address)
                net.partition(old.address, f"{other.address}.peerclient")
        # A client that can only reach the isolated old leader.
        session = CoordSession(sim, net, "mclient", [old.address])
        for other in replicas:
            if other is not old:
                net.partition("mclient", other.address)

        def scenario():
            yield from session.start()

        from repro.net import RpcTimeout, RemoteError

        with pytest.raises((RpcTimeout, RemoteError)):
            sim.run_until_event(sim.process(scenario()))
        # The isolated leader never applied the session creation.
        assert "session:mclient" not in old._session_timeouts or not old.tree.exists(
            "/partition-x"
        )


class TestMasterPartitions:
    def test_master_cut_off_from_coord_steps_down(self):
        # The active master loses its coordination session while hosts
        # can still reach it.  Once the cluster expires the session the
        # standby takes over, so the old master must have let go first:
        # otherwise endpoints keep heartbeating it, the new master hears
        # from no host, declares them all crashed and moves their disks.
        from repro.cluster import build_deployment
        from repro.cluster.metadata import HostStatus

        dep = build_deployment()
        dep.settle()
        old = dep.active_master()
        assert old is not None
        homes = {disk: dep.host_of_disk(disk) for disk in dep.disks}
        polls = []
        send = dep.network.send

        def logged(src, dst, payload, size=256):
            if (
                src.startswith(f"{old.address}.coord")
                and payload.get("method") == "coord.read"
                and payload["args"][0] == "children"
            ):
                polls.append(dep.sim.now)
            send(src, dst, payload, size)

        dep.network.send = logged
        for replica in dep.coord_replicas:
            dep.network.partition(f"{old.address}.coord", replica.address)

        def check():
            active = [m for m in dep.masters if m.active]
            assert len(active) == 1 and active[0] is not old
            for master in dep.masters:
                assert HostStatus.CRASHED not in master.sysstat.host_status.values()
            assert {disk: dep.host_of_disk(disk) for disk in dep.disks} == homes

        dep.sim.run(until=dep.sim.now + 10.0)
        check()
        # While active it waited for its step-down; standby, it polls the
        # election again.
        stood_down_by = dep.sim.now
        dep.sim.run(until=dep.sim.now + 10.0)
        check()
        assert any(at > stood_down_by for at in polls)
        dep.network.heal_all()
        dep.sim.run(until=dep.sim.now + 20.0)
        check()
        assert all(ep._master_address == active.address
                   for ep in dep.endpoints.values()
                   for active in [dep.active_master()])

    def test_masters_stand_again_after_their_sessions_expire(self):
        # Cut both masters off from the coordination service until the
        # cluster expires both sessions: no master may stay active, and
        # after the heal each stands again on a fresh session, so the
        # deployment gets exactly one active master back.
        from repro.cluster import build_deployment
        from repro.cluster.metadata import HostStatus

        dep = build_deployment()
        dep.settle()
        old_sessions = [m.coord for m in dep.masters]
        for master in dep.masters:
            for replica in dep.coord_replicas:
                dep.network.partition(master.coord.address, replica.address)
        dep.sim.run(until=dep.sim.now + 10.0)
        assert dep.active_master() is None
        dep.network.heal_all()
        dep.sim.run(until=dep.sim.now + 10.0)
        assert all(session.expired for session in old_sessions)
        assert [m.coord is s for m, s in zip(dep.masters, old_sessions)] == [False, False]
        active = [m for m in dep.masters if m.active]
        assert len(active) == 1
        assert HostStatus.CRASHED not in active[0].sysstat.host_status.values()
        dep.sim.run(until=dep.sim.now + 5.0)
        assert all(ep._master_address == active[0].address for ep in dep.endpoints.values())
