"""Gateway failure handling: endpoint death mid-batch.

The satellite contract: a host crash while a batch is being served must
surface as a ``SessionError``-triggered remount inside the ClientLib
mount path, and the gateway must neither lose nor double-issue any
queued request — every admitted request completes exactly once
(``attempts == 1``; attempts counts gateway-level issues, ClientLib
retries are internal to the space).
"""

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.gateway import (
    Gateway,
    GatewayConfig,
    ObjectRef,
    ReadObject,
    RequestState,
    TenantSpec,
    mount_gateway_spaces,
)
from repro.units import MiB

TENANT = TenantSpec(name="t0", weight=1.0, slo_seconds=600.0, max_queue_depth=64)


def build(seed=13, **config_kwargs):
    dep = build_deployment(config=DeploymentConfig(seed=seed))
    dep.settle(15.0)
    objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
    for disk_id in sorted(dep.disks):
        dep.disks[disk_id].spin_down()
    gateway = Gateway(
        dep.sim, (TENANT,), GatewayConfig(scheduler="batch", **config_kwargs)
    )
    gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
    gateway.start()
    return dep, gateway, objects, spaces


def drain(dep, gateway, cap=300.0):
    deadline = dep.sim.now + cap
    dep.sim.run(until=dep.sim.now + 1.0)
    while not gateway.drained() and dep.sim.now < deadline:
        dep.sim.run(until=dep.sim.now + 5.0)
    assert gateway.drained(), "gateway failed to drain after the crash"


def test_mid_batch_host_death_completes_exactly_once():
    dep, gateway, objects, spaces = build()
    target = objects[0]
    host = dep.host_of_disk(target.disk_id)
    assert host is not None
    requests = []

    def burst():
        for i in range(6):
            requests.append(
                gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, i * MiB, 1 * MiB)))
            )

    dep.sim.defer(0.0, burst)
    # Crash halfway through the 8 s spin-up: the batch is dispatched,
    # its first request waits on the disk, and the target has already
    # answered NOT READY, so the client times out at ready + 3 s and
    # remounts on the new host.
    dep.sim.run(until=dep.sim.now + 4.0)
    assert gateway.outstanding() > 0, "crash must land mid-batch"
    dep.crash_host(host)
    drain(dep, gateway)

    assert gateway.stats.admitted == 6
    assert gateway.stats.completed == 6
    assert gateway.stats.failed == 0
    # Exactly once: the gateway issued each request a single time; the
    # retry after the crash happened inside the ClientLib remount.
    assert all(r.attempts == 1 for r in requests)
    assert all(r.state is RequestState.COMPLETED for r in requests)
    space = spaces[target.space_id]
    assert space.stats.remounts >= 1
    assert space.stats.errors_seen >= 1


def test_queued_work_behind_the_crash_is_not_lost():
    """With a one-disk power budget, batches for two disks on the dying
    host serialize: one is in flight at crash time, the other is still
    queued.  Both must complete exactly once after failover."""
    dep, gateway, objects, spaces = build(power_budget_watts=8.0)
    w = gateway.power_accountant.watts_per_disk
    assert w <= 8.0 < 2 * w  # the budget admits exactly one disk
    by_host = {}
    for obj in objects:
        by_host.setdefault(dep.host_of_disk(obj.disk_id), []).append(obj)
    host, victims = sorted(
        by_host.items(), key=lambda item: -len(item[1])
    )[0]
    assert len(victims) >= 2
    first, second = victims[0], victims[1]
    requests = []

    def burst():
        for target in (first, second):
            for i in range(3):
                requests.append(
                    gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, i * MiB, 1 * MiB)))
                )

    dep.sim.defer(0.0, burst)
    # Crash during the first batch's spin-up (see the test above).
    dep.sim.run(until=dep.sim.now + 4.0)
    # One batch in flight, the other still queued behind the budget.
    assert gateway.queue.total_depth() > 0
    assert gateway.outstanding() > gateway.queue.total_depth()
    dep.crash_host(host)
    drain(dep, gateway)

    assert gateway.stats.admitted == 6
    assert gateway.stats.completed == 6
    assert gateway.stats.failed == 0
    assert all(r.attempts == 1 for r in requests)
    assert sum(space.stats.remounts for space in spaces.values()) >= 1


def test_requests_submitted_during_outage_complete():
    """Arrivals during the failover window queue up normally and are
    served once the cluster recovers."""
    dep, gateway, objects, spaces = build()
    target = objects[0]
    host = dep.host_of_disk(target.disk_id)
    requests = []

    def submit_one():
        requests.append(gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB))))

    dep.sim.defer(0.0, submit_one)
    dep.sim.run(until=dep.sim.now + 8.5)
    dep.crash_host(host)
    # Mid-outage arrival: the endpoint is dead but admission stays open.
    dep.sim.defer(1.0, submit_one)
    drain(dep, gateway)
    assert gateway.stats.completed == 2
    assert gateway.stats.failed == 0
    assert all(r.attempts == 1 for r in requests)
