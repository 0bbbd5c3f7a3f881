"""Fencing: a Master that has stepped down switches no disk.

The active Master stamps its fencing token (the sequence number of the
election node it activated with) on every command that changes hardware
or exposure.  Controllers and EndPoints refuse a token older than the
newest they have seen, and a failover stops at its next step once its
Master has stepped down; the spaces of disks it has already moved are
still exposed.
"""

import pytest

from repro.cluster import build_deployment, target_name
from repro.net import RemoteError, RpcClient
from repro.obs import RequestTracer
from repro.workload import MB

HOST1_DISKS = ["disk10", "disk11", "disk2", "disk3"]


def run_partitioned_failover():
    """master1 is active at 12 s.  Cut it from controller0, so its
    failover of host1 waits out a 2 s RPC timeout, crash host1, and
    1.6 s later cut master1's coordination session from every replica,
    so it steps down while that failover is still running."""
    dep = build_deployment(tracer=RequestTracer())
    dep.settle(12.0)
    master0, master1 = dep.masters
    assert master1.active and not master0.active
    sends = []
    send = dep.network.send

    def spy(src, dst, payload, size=256):
        if isinstance(payload, dict) and payload.get("kind") == "rpc_request":
            sends.append((dep.sim.now, src, payload["method"]))
        send(src, dst, payload, size)

    dep.network.send = spy
    dep.network.partition("master1.client", "unit0.controller0")
    dep.crash_host("host1")

    def cut_coordination():
        for replica in dep.coord_servers:
            dep.network.partition("master1.coord", replica)

    dep.sim.defer(1.6, cut_coordination)
    stepped_down = []

    def watch():
        if not master1.active and not stepped_down:
            stepped_down.append(dep.sim.now)
        dep.sim.defer(0.01, watch)

    watch()
    dep.sim.run(until=dep.sim.now + 40.0)
    return dep, sends, stepped_down[0]


@pytest.fixture(scope="module")
def partitioned():
    return run_partitioned_failover()


def test_stepped_down_master_sends_no_command(partitioned):
    dep, sends, stepped_down = partitioned
    assert 15.0 < stepped_down < 16.0
    late = [
        method for t, src, method in sends
        if src == "master1.client" and t >= stepped_down
    ]
    assert "controller.execute" not in late
    assert "controller.reachable_hosts" not in late
    assert dep.masters[1].failovers_completed == 0


def test_active_master_moves_the_crashed_hosts_disks(partitioned):
    dep, sends, _ = partitioned
    master0 = dep.masters[0]
    assert master0.active
    assert master0.failovers_completed == 1
    assert any(
        src == "master0.client" and method == "controller.execute"
        for _, src, method in sends
    )
    for disk_id in HOST1_DISKS:
        assert dep.host_of_disk(disk_id) not in (None, "host1")
        assert disk_id in dep.bus.os_view(dep.host_of_disk(disk_id))


def test_stepped_down_failover_trace_ends_aborted(partitioned):
    dep, _, _ = partitioned
    failovers = {
        ctx.status for ctx in dep.sim.tracer.completed if ctx.name == "master.failover"
    }
    assert failovers == {"aborted", "ok"}


def test_tokens_grow_with_each_activation(partitioned):
    dep, _, _ = partitioned
    master0, master1 = dep.masters
    assert master0.token > master1.token
    assert dep.controllers[0].fence.highest == master0.token


def step_down_at_first_switch():
    """A deployment whose active Master, master1 at 12 s, holds one
    space on each of host1's four disks, and which cuts master1's
    coordination session from every replica the moment master1 sends
    its first ``controller.execute``: master1 steps down while the
    Controller turns the switches and the disks enumerate."""
    dep = build_deployment()
    dep.settle(12.0)
    master1 = dep.masters[1]
    assert master1.active
    clients = [dep.new_client(f"app{i}", service=f"svc{i}") for i in range(4)]

    def allocate():
        spaces = []
        for client in clients:
            info = yield from client.allocate(10 * MB, locality_hint="host1")
            spaces.append(info["space_id"])
        return spaces

    spaces = dep.sim.run_until_event(dep.sim.process(allocate()))
    assert sorted(space.split("/")[2] for space in spaces) == HOST1_DISKS
    cut = []
    send = dep.network.send

    def spy(src, dst, payload, size=256):
        if (
            not cut
            and src == "master1.client"
            and isinstance(payload, dict)
            and payload.get("method") == "controller.execute"
        ):
            cut.append(dep.sim.now)
            for replica in dep.coord_servers:
                dep.network.partition(master1.coord.address, replica)
        send(src, dst, payload, size)

    dep.network.send = spy
    return dep, spaces, cut


def assert_exposed_where_attached(dep, spaces):
    for space_id in spaces:
        host = dep.host_of_disk(space_id.split("/")[2])
        assert host not in (None, "host1")
        assert target_name(space_id) in dep.endpoints[host].targets.exposed_targets()


def test_failover_stepped_down_mid_switch_exposes_the_moved_spaces():
    dep, spaces, cut = step_down_at_first_switch()
    master0, master1 = dep.masters
    dep.crash_host("host1")
    dep.sim.run(until=dep.sim.now + 4.0)
    # Stepped down, and the switched disks are still enumerating.
    assert cut and not master1.active
    assert not dep.endpoints["host2"].targets.exposed_targets()
    dep.sim.run(until=dep.sim.now + 30.0)
    assert master0.active
    assert_exposed_where_attached(dep, spaces)
    assert master1.failovers_completed == 1


def test_migration_stepped_down_mid_switch_exposes_the_moved_spaces():
    dep, spaces, cut = step_down_at_first_switch()
    master1 = dep.masters[1]
    rpc = RpcClient(dep.sim, dep.network, "migrator")
    batch = [(disk_id, "host2") for disk_id in HOST1_DISKS]

    def migrate():
        return (yield from rpc.call("master1", "master.migrate_batch", batch, timeout=90.0))

    reply = dep.sim.run_until_event(dep.sim.process(migrate()))
    assert cut and not master1.active
    assert reply["moved"] == 4
    assert_exposed_where_attached(dep, spaces)


def caller(dep):
    rpc = RpcClient(dep.sim, dep.network, "fence-tester")

    def call(target, method, *args):
        def scenario():
            return (yield from rpc.call(target, method, *args, timeout=40.0))

        return dep.sim.run_until_event(dep.sim.process(scenario()))

    return call


def test_controller_refuses_an_older_token():
    dep = build_deployment()
    dep.settle(15.0)
    token = dep.active_master().token
    call = caller(dep)
    call("unit0.controller0", "controller.execute", token + 1, [("disk0", "host2")])
    with pytest.raises(RemoteError, match="StaleMasterError"):
        call("unit0.controller0", "controller.execute", token, [("disk0", "host0")])
    assert dep.fabric.attached_host("disk0") == "host2"


def test_endpoint_refuses_an_older_token():
    dep = build_deployment()
    dep.settle(15.0)
    token = dep.active_master().token
    host0 = dep.sysconf.host_addresses["host0"]
    call = caller(dep)
    assert call(host0, "endpoint.withdraw", token + 1, "/unit0/disk0/space0") is False
    with pytest.raises(RemoteError, match="StaleMasterError"):
        call(host0, "endpoint.withdraw", token, "/unit0/disk0/space0")
    with pytest.raises(RemoteError, match="StaleMasterError"):
        call(host0, "endpoint.set_disk_power", token, "disk0", "spin_down")
