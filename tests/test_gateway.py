"""Tests for repro.gateway: queues, scheduling, admission, dispatch.

Unit tests cover the weighted-fair queue, the power accountant and the
two scheduler strategies in isolation; the queue's per-disk index is
held to a full-scan reference over random interleavings and to a
count of the request reads it makes; integration tests drive a real
Gateway over a full 16-disk deployment through the ClientLib mount
path, and the determinism test replays the registered ``gateway_slo``
experiment point twice.
"""

import math
import random
import warnings
from collections import Counter

import pytest

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.coord import client as coord_client
from repro.coord.service import SESSION_TIMEOUT
from repro.disk.device import SimulatedDisk
from repro.disk.states import DiskPowerState
from repro.experiments import gateway_slo
from repro.gateway import (
    AdmissionError,
    ColdReadBatchScheduler,
    FifoScheduler,
    Gateway,
    GatewayConfig,
    DiskPass,
    GatewayError,
    GatewayRequest,
    ObjectRef,
    ReadObject,
    ReadRange,
    WriteObject,
    coalesce_batch,
    resolve_op,
    OpenLoopTrafficGenerator,
    PendingDisk,
    PowerAccountant,
    QueueFullError,
    RequestState,
    TenantSpec,
    UnknownTenantError,
    WeightedFairQueue,
    make_scheduler,
    mount_gateway_spaces,
)
from repro.gateway.gateway import POLL_INTERVAL
from repro.obs import MetricsRegistry, export_json
from repro.sim import SCHEDULERS, EventDigest, HeapScheduler, Simulator, observe_pops, use_scheduler
from repro.sim.kernel import _describe_event
from repro.units import KiB, MiB


def request(
    rid,
    tenant,
    disk="disk0",
    size=1 * MiB,
    arrival=0.0,
    deadline=60.0,
):
    return GatewayRequest(
        request_id=rid,
        tenant=tenant,
        space_id=f"/unit0/{disk}/space0",
        disk_id=disk,
        offset=0,
        size=size,
        is_read=True,
        arrival=arrival,
        deadline=deadline,
    )


class TestWeightedFairQueue:
    def specs(self):
        return {
            "heavy": TenantSpec(name="heavy", weight=2.0, max_queue_depth=16),
            "light": TenantSpec(name="light", weight=1.0, max_queue_depth=16),
        }

    def test_drains_in_proportion_to_weight(self):
        queue = WeightedFairQueue(self.specs())
        rid = 0
        for _ in range(4):
            queue.push(request(rid, "heavy"))
            rid += 1
            queue.push(request(rid, "light"))
            rid += 1
        taken = queue.take_for_disk("disk0", 6)
        by_tenant = [r.tenant for r in taken]
        assert by_tenant.count("heavy") == 4
        assert by_tenant.count("light") == 2

    def test_queue_full_is_typed_and_bounded(self):
        specs = {"t": TenantSpec(name="t", max_queue_depth=2)}
        queue = WeightedFairQueue(specs)
        queue.push(request(0, "t"))
        queue.push(request(1, "t"))
        with pytest.raises(QueueFullError) as info:
            queue.push(request(2, "t"))
        assert isinstance(info.value, AdmissionError)
        assert info.value.tenant == "t"
        assert info.value.depth == 2 and info.value.limit == 2
        assert queue.depth("t") == 2  # the reject did not enqueue

    def test_unknown_tenant_is_typed(self):
        queue = WeightedFairQueue(self.specs())
        with pytest.raises(UnknownTenantError):
            queue.push(request(0, "nobody"))

    def test_take_for_disk_only_touches_that_disk(self):
        queue = WeightedFairQueue(self.specs())
        queue.push(request(0, "heavy", disk="disk0"))
        queue.push(request(1, "heavy", disk="disk1"))
        taken = queue.take_for_disk("disk0", 10)
        assert [r.request_id for r in taken] == [0]
        assert queue.total_depth() == 1

    def test_pending_by_disk_summarizes(self):
        queue = WeightedFairQueue(self.specs())
        queue.push(request(0, "heavy", disk="disk1", arrival=5.0, deadline=50.0))
        queue.push(request(1, "light", disk="disk0", arrival=1.0, deadline=90.0))
        queue.push(request(2, "heavy", disk="disk1", arrival=3.0, deadline=40.0))
        pending = queue.pending_by_disk()
        assert [p.disk_id for p in pending] == ["disk0", "disk1"]
        disk1 = pending[1]
        assert disk1.count == 2
        assert disk1.earliest_arrival == 3.0
        assert disk1.earliest_deadline == 40.0
        assert disk1.oldest_request_id == 0

    def test_idle_tenant_does_not_bank_credit(self):
        """After the queue drains, a newly arriving tenant starts at the
        advanced virtual time, not at zero."""
        queue = WeightedFairQueue(self.specs())
        for rid in range(4):
            queue.push(request(rid, "heavy"))
        dispatched = queue.take_for_disk("disk0", 4)
        high_water = max(r.fair_tag for r in dispatched)
        late = request(10, "light")
        queue.push(late)
        assert late.fair_tag >= high_water


class ScanQueue:
    """Reference queue for the oracle test: per-tenant FIFOs, with every
    summary and every take rebuilt by a full scan of all queued
    requests."""

    def __init__(self, tenants):
        self._specs = dict(tenants)
        self._queues = {name: [] for name in tenants}
        self._virtual_time = 0.0
        self._last_finish = {name: 0.0 for name in tenants}

    def push(self, request):
        spec = self._specs.get(request.tenant)
        if spec is None:
            raise UnknownTenantError(request.tenant)
        pending = self._queues[request.tenant]
        if len(pending) >= spec.max_queue_depth:
            raise QueueFullError(request.tenant, len(pending), spec.max_queue_depth)
        start = max(self._virtual_time, self._last_finish[request.tenant])
        finish = start + float(request.size) / spec.weight
        request.fair_tag = finish
        self._last_finish[request.tenant] = finish
        pending.append(request)

    def total_depth(self):
        return sum(len(q) for q in self._queues.values())

    def depths(self):
        return {name: len(queue) for name, queue in self._queues.items()}

    def pending_by_disk(self):
        summary = {}
        for name in self._queues:
            for request in self._queues[name]:
                summary.setdefault(request.disk_id, []).append(request)
        return [
            PendingDisk(
                disk_id=disk_id,
                count=len(requests),
                earliest_arrival=min(r.arrival for r in requests),
                earliest_deadline=min(r.deadline for r in requests),
                oldest_request_id=min(r.request_id for r in requests),
            )
            for disk_id, requests in sorted(summary.items())
        ]

    def take_for_disk(self, disk_id, limit):
        if limit < 1:
            return []
        matching = [
            request
            for name in self._queues
            for request in self._queues[name]
            if request.disk_id == disk_id
        ]
        matching.sort(key=lambda r: (r.fair_tag, r.request_id))
        taken = matching[:limit]
        for request in taken:
            self._queues[request.tenant].remove(request)
            if request.fair_tag > self._virtual_time:
                self._virtual_time = request.fair_tag
        return taken


ORACLE_TENANTS = {
    "a": TenantSpec(name="a", weight=1.0, max_queue_depth=8),
    "b": TenantSpec(name="b", weight=2.0, max_queue_depth=12),
    "c": TenantSpec(name="c", weight=0.5, max_queue_depth=5),
}
ORACLE_DISKS = [f"disk{i}" for i in range(5)]


@pytest.mark.parametrize("seed", range(30))
def test_queue_index_matches_scan_oracle(seed):
    """Random push/take interleavings: the indexed queue and the scan
    oracle agree on every admission, tag, take and summary."""
    rng = random.Random(seed)
    queue, oracle = WeightedFairQueue(ORACLE_TENANTS), ScanQueue(ORACLE_TENANTS)
    # Unique ids in shuffled order, so neither the summaries nor the
    # take order can lean on ids rising with admission.
    ids = list(range(300))
    rng.shuffle(ids)
    for step in range(300):
        if rng.random() < 0.6:
            arrival = float(step // 4)  # coarse, so summaries see ties
            fields = dict(
                tenant=rng.choice(("a", "a", "b", "b", "c", "nobody")),
                disk=rng.choice(ORACLE_DISKS),
                size=rng.choice((1, 512 * KiB, 1 * MiB, 4 * MiB)),
                arrival=arrival,
                deadline=arrival + rng.choice((30.0, 60.0, 120.0)),
            )
            outcomes = []
            for target in (queue, oracle):
                admitted = request(ids[-1], **fields)
                try:
                    target.push(admitted)
                except AdmissionError as exc:
                    outcomes.append((type(exc), str(exc)))
                else:
                    # The tag exposes the virtual time each queue holds.
                    outcomes.append(("admitted", admitted.fair_tag))
            assert outcomes[0] == outcomes[1]
            if outcomes[0][0] == "admitted":
                ids.pop()
        else:
            disk = rng.choice(ORACLE_DISKS + ["disk9"])  # disk9: never queued
            limit = rng.choice((0, 1, 2, 3, 8, 64))
            taken = [r.request_id for r in queue.take_for_disk(disk, limit)]
            assert taken == [r.request_id for r in oracle.take_for_disk(disk, limit)]
        assert queue.pending_by_disk() == oracle.pending_by_disk()
        assert queue.depths() == oracle.depths()
        assert queue.total_depth() == oracle.total_depth()


#: Attribute reads of :class:`ReadCountingRequest` objects, by disk.
REQUEST_READS = Counter()


class ReadCountingRequest(GatewayRequest):
    """A request that counts every attribute read made of it."""

    def __getattribute__(self, name):
        REQUEST_READS[object.__getattribute__(self, "disk_id")] += 1
        return object.__getattribute__(self, name)


def test_queue_work_does_not_grow_with_other_disks_backlog():
    """Summaries read no request; a take reads only its own disk's."""
    queue = WeightedFairQueue({"t": TenantSpec(name="t", max_queue_depth=1000)})
    for rid in range(1000):
        disk = f"disk{rid % 5}"
        queue.push(
            ReadCountingRequest(
                request_id=rid,
                tenant="t",
                space_id=f"/unit0/{disk}/space0",
                disk_id=disk,
                offset=0,
                size=1 * MiB,
                is_read=True,
                arrival=0.0,
                deadline=60.0,
            )
        )
    REQUEST_READS.clear()
    pending = queue.pending_by_disk()
    assert [p.count for p in pending] == [200] * 5
    assert sum(REQUEST_READS.values()) == 0
    taken = queue.take_for_disk("disk2", 10)
    assert len(taken) == 10
    assert set(REQUEST_READS) == {"disk2"}


class TestPowerAccountant:
    def build(self, n=3, budget=20.0, watts=10.0):
        sim = Simulator()
        disks = {f"d{i}": SimulatedDisk(sim, f"d{i}") for i in range(n)}
        for disk in disks.values():
            disk.spin_down()
        return sim, disks, PowerAccountant(disks, budget, watts)

    def test_grants_reserve_watts(self):
        _, _, power = self.build()
        assert power.in_use_watts() == 0.0
        assert power.can_afford("d0")
        power.grant("d0")
        assert power.granted("d0")
        assert power.in_use_watts() == 10.0
        power.grant("d1")
        assert power.in_use_watts() == 20.0
        assert not power.can_afford("d2")  # 30 W > 20 W budget

    def test_spinning_disk_costs_nothing_extra(self):
        sim, disks, power = self.build()
        sim.run_until_event(disks["d0"].spin_up())
        assert power.drawing("d0")
        assert power.cost_of("d0") == 0.0
        assert power.in_use_watts() == 10.0

    def test_grant_retired_once_disk_draws(self):
        sim, disks, power = self.build()
        power.grant("d0")
        sim.run_until_event(disks["d0"].spin_up())
        # The observed draw replaces the reservation: still one disk.
        assert power.in_use_watts() == 10.0
        assert not power.granted("d0")

    def test_release_frees_the_reservation(self):
        _, _, power = self.build()
        power.grant("d0")
        power.release("d0")
        assert power.in_use_watts() == 0.0

    @pytest.mark.parametrize("seed", range(30))
    def test_in_use_watts_matches_the_sorted_walk(self, seed):
        """The count kept by state listeners gives the same watts as a
        walk in sorted disk order, bit for bit, retires the same grants,
        and a call reads no disk's state."""

        class StubDisk:
            state_reads = 0

            def __init__(self, disk_id, state):
                self.disk_id = disk_id
                self._state = state
                self._listeners = []

            @property
            def power_state(self):
                StubDisk.state_reads += 1
                return self._state

            def add_state_listener(self, listener):
                self._listeners.append(listener)

            def enter(self, state):
                closed, self._state = self._state, state
                for listener in self._listeners:
                    listener(self.disk_id, closed, 0.0, None)

        def sorted_walk(disks, granted, watts_per_disk):
            drawing = (DiskPowerState.SPINNING_UP, DiskPowerState.IDLE, DiskPowerState.ACTIVE)
            watts = 0.0
            for disk_id in sorted(disks):
                if disks[disk_id].power_state in drawing:
                    watts += watts_per_disk
                    granted.pop(disk_id, None)
            return watts + sum(granted.values())

        rng = random.Random(seed)
        states = list(DiskPowerState)
        ids = [f"d{i}" for i in range(rng.randint(1, 40))]
        rng.shuffle(ids)  # insertion order is not id order
        disks = {disk_id: StubDisk(disk_id, rng.choice(states)) for disk_id in ids}
        watts_per_disk = rng.uniform(0.5, 13.0)
        power = PowerAccountant(disks, 1e6, watts_per_disk)
        for _ in range(25):
            for disk in disks.values():
                if rng.random() < 0.3:
                    disk.enter(rng.choice(states))
            for disk_id in rng.sample(ids, rng.randint(0, len(ids))):
                if rng.random() < 0.5:
                    power.grant(disk_id)
                else:
                    power.release(disk_id)
            oracle_granted = dict(power._granted)
            expected = sorted_walk(disks, oracle_granted, watts_per_disk)
            reads_before = StubDisk.state_reads
            assert power.in_use_watts().hex() == expected.hex()
            assert StubDisk.state_reads == reads_before
            assert list(power._granted.items()) == list(oracle_granted.items())

    def test_rejects_nonpositive_budget(self):
        sim = Simulator()
        disks = {"d0": SimulatedDisk(sim, "d0")}
        with pytest.raises(ValueError):
            PowerAccountant(disks, 0.0, 10.0)
        with pytest.raises(ValueError):
            PowerAccountant(disks, 10.0, -1.0)


class TestSchedulers:
    def entry(self, disk_id, deadline=60.0, arrival=0.0, oldest=0, count=4):
        return PendingDisk(
            disk_id=disk_id,
            count=count,
            earliest_arrival=arrival,
            earliest_deadline=deadline,
            oldest_request_id=oldest,
        )

    def test_batch_spreads_across_failure_units_first(self):
        hosts = {"d0": "hostA", "d1": "hostA", "d2": "hostB"}
        scheduler = ColdReadBatchScheduler()
        ordered = scheduler.order(
            [self.entry("d0"), self.entry("d1"), self.entry("d2")],
            busy_hosts=["hostA"],
            host_of=hosts.get,
        )
        assert ordered[0].disk_id == "d2"  # only idle failure unit

    def test_batch_is_earliest_deadline_first(self):
        scheduler = ColdReadBatchScheduler()
        ordered = scheduler.order(
            [self.entry("d0", deadline=90.0), self.entry("d1", deadline=30.0)],
            busy_hosts=[],
            host_of=lambda disk_id: None,
        )
        assert [e.disk_id for e in ordered] == ["d1", "d0"]

    def test_batch_limit_caps_at_max_batch(self):
        scheduler = ColdReadBatchScheduler(max_batch=8)
        assert scheduler.batch_limit(self.entry("d0", count=3)) == 3
        assert scheduler.batch_limit(self.entry("d0", count=50)) == 8
        assert not scheduler.head_of_line

    def test_fifo_is_arrival_ordered_singletons(self):
        scheduler = FifoScheduler()
        ordered = scheduler.order(
            [self.entry("d0", oldest=7), self.entry("d1", oldest=2)],
            busy_hosts=["hostA"],
            host_of=lambda disk_id: "hostA",
        )
        assert [e.disk_id for e in ordered] == ["d1", "d0"]
        assert scheduler.batch_limit(self.entry("d0", count=50)) == 1
        assert scheduler.head_of_line

    def test_make_scheduler(self):
        assert make_scheduler("batch").max_batch == 64
        assert make_scheduler("fifo").name == "fifo"
        with pytest.raises(ValueError):
            make_scheduler("lifo")
        with pytest.raises(ValueError):
            ColdReadBatchScheduler(max_batch=0)


class TestTypedApi:
    def test_object_ref_validates(self):
        with pytest.raises(ValueError):
            ObjectRef("", 0, 1)
        with pytest.raises(ValueError):
            ObjectRef("/unit0/disk0/space0", -1, 1)
        with pytest.raises(ValueError):
            ObjectRef("/unit0/disk0/space0", 0, 0)
        ref = ObjectRef("/unit0/disk0/space0", 4, 16, object_id="obj")
        assert ref.end == 20

    def test_read_range_validates_window(self):
        ref = ObjectRef("/unit0/disk0/space0", 100, 50)
        with pytest.raises(ValueError):
            ReadRange("t0", ref, start=-1, length=10)
        with pytest.raises(ValueError):
            ReadRange("t0", ref, start=0, length=0)
        with pytest.raises(ValueError):
            ReadRange("t0", ref, start=45, length=10)  # past ref.end

    def test_resolve_op_shapes(self):
        ref = ObjectRef("/unit0/disk0/space0", 100, 50)
        assert resolve_op(ReadObject("t0", ref)) == (ref.space_id, 100, 50, True)
        assert resolve_op(WriteObject("t0", ref)) == (ref.space_id, 100, 50, False)
        # A range read is absolute: ref.offset + start, for length.
        assert resolve_op(ReadRange("t0", ref, start=10, length=5)) == (
            ref.space_id,
            110,
            5,
            True,
        )


class TestCoalesceBatch:
    def req(self, rid, offset, size, is_read=True, disk="disk0"):
        return GatewayRequest(
            request_id=rid,
            tenant="t0",
            space_id=f"/unit0/{disk}/space0",
            disk_id=disk,
            offset=offset,
            size=size,
            is_read=is_read,
            arrival=0.0,
            deadline=60.0,
        )

    def test_adjacent_and_overlapping_reads_merge(self):
        batch = [
            self.req(0, 0, 100),
            self.req(1, 100, 100),  # adjacent
            self.req(2, 150, 100),  # overlapping
        ]
        passes = coalesce_batch(batch)
        assert len(passes) == 1
        only = passes[0]
        assert isinstance(only, DiskPass)
        assert (only.offset, only.size) == (0, 250)
        assert only.end == 250
        assert [r.request_id for r in only.requests] == [0, 1, 2]

    def test_gap_window_bridges_nearby_reads(self):
        batch = [self.req(0, 0, 100), self.req(1, 150, 100)]
        assert len(coalesce_batch(batch, gap_bytes=0)) == 2
        merged = coalesce_batch(batch, gap_bytes=50)
        assert len(merged) == 1
        assert (merged[0].offset, merged[0].size) == (0, 250)

    def test_writes_never_merge(self):
        batch = [
            self.req(0, 0, 100, is_read=False),
            self.req(1, 100, 100, is_read=False),
        ]
        passes = coalesce_batch(batch, gap_bytes=1 * MiB)
        assert len(passes) == 2
        assert all(not p.is_read for p in passes)

    def test_distinct_spaces_never_merge(self):
        batch = [
            self.req(0, 0, 100, disk="disk0"),
            self.req(1, 0, 100, disk="disk1"),
        ]
        assert len(coalesce_batch(batch, gap_bytes=1 * MiB)) == 2

    def test_unmerged_batch_preserves_legacy_order(self):
        batch = [
            self.req(0, 5 * MiB, 100),
            self.req(1, 0, 100),
            self.req(2, 2 * MiB, 100, is_read=False),
        ]
        passes = coalesce_batch(batch)
        assert [p.requests[0].request_id for p in passes] == [0, 1, 2]

    def test_pass_order_follows_earliest_member(self):
        batch = [
            self.req(0, 5 * MiB, 100),
            self.req(1, 0, 100),
            self.req(2, 5 * MiB + 100, 100),  # merges with request 0
        ]
        passes = coalesce_batch(batch)
        assert len(passes) == 2
        # The merged pass contains the batch's first request, so it
        # keeps the front position despite its higher offset.
        assert [r.request_id for r in passes[0].requests] == [0, 2]
        assert [r.request_id for r in passes[1].requests] == [1]


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="")
        with pytest.raises(ValueError):
            TenantSpec(name="t", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", read_fraction=1.5)
        with pytest.raises(ValueError):
            TenantSpec(name="t", max_queue_depth=0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", object_sizes=())
        with pytest.raises(ValueError):
            TenantSpec(name="t", object_sizes=((0, 1.0),))

    def test_arrival_rate_is_users_times_rate(self):
        spec = TenantSpec(name="t", users=2_000_000, rate_per_user=1e-6)
        assert spec.arrival_rate == pytest.approx(2.0)


# -- integration over a real deployment ---------------------------------

TENANT = TenantSpec(name="t0", weight=1.0, slo_seconds=120.0, max_queue_depth=64)


def build_gateway(scheduler="batch", tenants=(TENANT,), seed=7, **config_kwargs):
    """A settled 16-disk deployment fronted by a gateway, disks cold."""
    dep = build_deployment(config=DeploymentConfig(seed=seed))
    dep.settle(15.0)
    objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
    for disk_id in sorted(dep.disks):
        dep.disks[disk_id].spin_down()
    gateway = Gateway(
        dep.sim,
        tenants,
        GatewayConfig(scheduler=scheduler, **config_kwargs),
    )
    gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
    gateway.start()
    return dep, gateway, objects


def drain(dep, gateway, cap=300.0):
    deadline = dep.sim.now + cap
    # Always step once so same-timestep deferred submissions land first.
    dep.sim.run(until=dep.sim.now + 1.0)
    while not gateway.drained() and dep.sim.now < deadline:
        dep.sim.run(until=dep.sim.now + 5.0)
    assert gateway.drained(), "gateway failed to drain its queues"


class TestGatewayDispatch:
    def test_burst_to_one_disk_costs_one_spin_up(self):
        """The §IV-F bet: a batch amortizes a single spin-up."""
        dep, gateway, objects = build_gateway("batch")
        target = objects[0]
        requests = []

        def burst():
            for i in range(6):
                requests.append(
                    gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, i * MiB, 1 * MiB)))
                )

        dep.sim.defer(0.0, burst)
        drain(dep, gateway)
        assert gateway.stats.admitted == 6
        assert gateway.stats.completed == 6
        assert gateway.stats.batches == 1
        assert gateway.spin_ups() == 1
        assert all(r.state is RequestState.COMPLETED for r in requests)
        assert all(r.attempts == 1 for r in requests)
        assert all(r.latency is not None and r.latency > 8.0 for r in requests)

    def test_admission_bound_rejects_overflow(self):
        tenant = TenantSpec(name="t0", slo_seconds=120.0, max_queue_depth=4)
        dep, gateway, objects = build_gateway("batch", tenants=(tenant,))
        target = objects[0]
        rejects = []

        def burst():
            for i in range(6):
                try:
                    gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB)))
                except QueueFullError as exc:
                    rejects.append(exc)

        dep.sim.defer(0.0, burst)
        drain(dep, gateway)
        assert len(rejects) == 2
        assert gateway.stats.rejected == 2
        assert gateway.stats.admitted == 4
        assert gateway.stats.completed == 4
        assert gateway.stats.per_tenant["t0"].rejected == 2

    def test_unknown_space_is_a_gateway_error(self):
        dep, gateway, _ = build_gateway("batch")
        with pytest.raises(GatewayError):
            gateway.submit_op(ReadObject("t0", ObjectRef("/unit9/disk99/space0", 0, 1 * MiB)))

    def test_unknown_space_is_counted_nowhere(self):
        """A refused space is refused before any counter moves, so
        submitted == admitted + rejected still holds afterwards."""
        registry = MetricsRegistry()
        dep = build_deployment(config=DeploymentConfig(seed=7), metrics=registry)
        dep.settle(15.0)
        objects, spaces = mount_gateway_spaces(dep, 64 * MiB, max_spaces=2)
        gateway = Gateway(dep.sim, (TENANT,), GatewayConfig())
        gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
        gateway.start()
        with pytest.raises(GatewayError, match="unknown space"):
            gateway.submit_op(ReadObject("t0", ObjectRef("/unit9/disk99/space0", 0, 1 * MiB)))
        stats = gateway.stats
        assert stats.submitted == stats.admitted + stats.rejected == 0
        assert registry.dump()["counters"]["gateway.submitted"] == 0

    def test_deadline_stamped_from_tenant_slo(self):
        tenant = TenantSpec(name="t0", slo_seconds=1.0, max_queue_depth=64)
        dep, gateway, objects = build_gateway("batch", tenants=(tenant,))
        target = objects[0]
        holder = []
        dep.sim.defer(
            0.0,
            lambda: holder.append(
                gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB)))
            ),
        )
        drain(dep, gateway)
        req = holder[0]
        assert req.deadline == pytest.approx(req.arrival + 1.0)
        # A cold read pays the 8s spin-up, so a 1s SLO must be missed.
        assert req.missed_slo()
        assert gateway.stats.slo_misses == 1

    def test_power_budget_bounds_concurrent_spinning(self):
        """With a one-disk budget, at most one disk may draw power at
        any sampled instant, yet all four disks' work completes."""
        dep, gateway, objects = build_gateway("batch", power_budget_watts=8.0)
        w = gateway.power_accountant.watts_per_disk
        assert w <= 8.0 < 2 * w  # the budget admits exactly one disk
        targets = objects[:4]

        def burst():
            for target in targets:
                gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB)))

        dep.sim.defer(0.0, burst)
        samples = []
        drawing_states = (
            DiskPowerState.SPINNING_UP,
            DiskPowerState.IDLE,
            DiskPowerState.ACTIVE,
        )

        def sampler():
            while True:
                spinning = sum(
                    1
                    for disk_id in sorted(dep.disks)
                    if dep.disks[disk_id].power_state in drawing_states
                )
                samples.append(spinning)
                yield dep.sim.timeout(0.5)

        dep.sim.process(sampler())
        drain(dep, gateway)
        assert gateway.stats.completed == 4
        assert max(samples) <= 1
        # Serialized across four cold disks: four separate spin-ups,
        # freed in between by the dispatch pass's reclaim step.
        assert gateway.spin_ups() == 4
        assert gateway.stats.reclaim_spin_downs >= 1

    def test_reclaim_prefers_the_disk_idle_longer(self):
        """A two-disk budget held by a disk idle since its read and a
        disk spun up later without I/O: a read for a third disk
        reclaims the first, whose idle clock started earlier."""
        dep, gateway, objects = build_gateway("batch", power_budget_watts=16.0)
        served, woken, wanted = (dep.disks[obj.disk_id] for obj in objects[:3])
        gateway.submit_op(ReadObject("t0", ObjectRef(objects[0].space_id, 0, 4 * KiB)))
        dep.sim.run(until=dep.sim.now + 9.0)  # an 8 s spin-up, then the read
        assert gateway.stats.completed == 1
        assert served.power_state is DiskPowerState.IDLE
        woken.spin_up()
        dep.sim.run(until=dep.sim.now + woken.spec.spin_up_time + 0.5)
        assert woken.power_state is DiskPowerState.IDLE
        gateway.submit_op(ReadObject("t0", ObjectRef(objects[2].space_id, 0, 4 * KiB)))
        dep.sim.run(until=dep.sim.now + 1.0)
        assert gateway.stats.reclaim_spin_downs == 1
        assert served.power_state is DiskPowerState.SPUN_DOWN
        assert woken.power_state is DiskPowerState.IDLE
        assert wanted.power_state is DiskPowerState.SPINNING_UP

    def test_metrics_flow_through_registry(self):
        registry = MetricsRegistry()
        dep = build_deployment(
            config=DeploymentConfig(seed=7), metrics=registry
        )
        dep.settle(15.0)
        objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
        for disk_id in sorted(dep.disks):
            dep.disks[disk_id].spin_down()
        gateway = Gateway(dep.sim, (TENANT,), GatewayConfig())
        gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
        gateway.start()
        target = objects[0]
        dep.sim.defer(
            0.0, lambda: gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB)))
        )
        drain(dep, gateway)
        counters = registry.dump()["counters"]
        assert counters["gateway.submitted"] == 1
        assert counters["gateway.completed"] == 1
        assert counters["gateway.batches"] == 1
        histograms = registry.histograms()
        assert histograms["gateway.latency_seconds"].count == 1
        assert histograms["gateway.latency_seconds.t0"].count == 1
        assert histograms["gateway.batch_size"].count == 1

    def test_lifecycle_guards(self):
        dep = build_deployment(config=DeploymentConfig(seed=7))
        dep.settle(15.0)
        gateway = Gateway(dep.sim, (TENANT,), GatewayConfig())
        with pytest.raises(GatewayError):
            gateway.start()  # attach() must come first
        with pytest.raises(ValueError):
            Gateway(dep.sim, (), GatewayConfig())
        with pytest.raises(ValueError):
            Gateway(dep.sim, (TENANT, TENANT), GatewayConfig())


class TestDispatchPasses:
    """Each wake defers one dispatch pass; each batch is stepped in place."""

    #: Long enough for a read to wait out an 8 s spin-up.
    WINDOW = 9.0

    def test_a_gateway_run_starts_no_process_from_gateway_code(self, monkeypatch):
        dep = build_deployment(config=DeploymentConfig(seed=7))
        dep.settle(15.0)
        objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
        for disk_id in sorted(dep.disks):
            dep.disks[disk_id].spin_down()
        started = []
        real_process = Simulator.process

        def recording(sim, generator):
            started.append(generator.gi_frame.f_globals["__name__"])
            return real_process(sim, generator)

        monkeypatch.setattr(Simulator, "process", recording)
        # A one-disk budget, so the run also reclaims and polls.
        gateway = Gateway(dep.sim, (TENANT,), GatewayConfig(power_budget_watts=8.0))
        gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
        gateway.start()

        def burst():
            for target in objects[:3]:
                gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB)))
            gateway.submit_op(WriteObject("t0", ObjectRef(objects[0].space_id, 2 * MiB, 4 * KiB)))

        dep.sim.defer(0.0, burst)
        drain(dep, gateway)
        assert gateway.stats.completed == 4
        assert gateway.stats.batches >= 3
        assert gateway.stats.reclaim_spin_downs >= 1
        assert [name for name in started if name.startswith("repro.gateway")] == []

    def _read_pops(self, spinning):
        """The pops one 4 KiB read adds to a window, by the label
        ``_describe_event`` gives each, against the same window without it."""
        windows = []
        for read in (False, True):
            labels = Counter()
            recording = []

            def label(item):
                if recording:
                    labels[_describe_event(item[3])] += 1
                return item

            SCHEDULERS["labelled"] = observe_pops(HeapScheduler, label)
            try:
                with use_scheduler("labelled"):
                    dep, gateway, objects = build_gateway("batch")
            finally:
                del SCHEDULERS["labelled"]
            ref = ObjectRef(objects[0].space_id, 0, 4 * KiB)
            if spinning:  # a first read spins the disk up
                gateway.submit_op(ReadObject("t0", ref))
                dep.sim.run(until=dep.sim.now + self.WINDOW)
            start = dep.sim.events
            recording.append(True)
            if read:
                dep.sim.defer(0.0, lambda: gateway.submit_op(ReadObject("t0", ref)))
            dep.sim.run(until=dep.sim.now + self.WINDOW)
            assert gateway.stats.completed == int(spinning) + int(read)
            assert sum(labels.values()) == dep.sim.events - start
            windows.append(labels)
        without, with_read = windows
        assert without - with_read == Counter()  # the read removes no pop
        return with_read - without

    #: The labels of the read's submit, its two passes, its deliveries
    #: and the handler's resumption by the service timeout.
    SUBMIT = "deferred:TestDispatchPasses._read_pops.<locals>.<lambda>"
    PASS = "deferred:Gateway._dispatch"
    DELIVERY = "deferred:Network.send.<locals>.<lambda>"
    SERVICE = "resume:IscsiTargetServer._io"

    def test_a_read_on_a_spinning_disk_pops_6_events(self):
        # The submit, its pass, the request delivery (the target takes
        # the free disk queue inside it), the service timeout (the reply
        # leaves from it), the reply delivery (the batch resumes inside
        # it and ends) and the pass the batch's end wakes.
        assert self._read_pops(spinning=True) == Counter(
            {self.SUBMIT: 1, self.PASS: 2, self.DELIVERY: 2, self.SERVICE: 1}
        )

    def test_a_read_on_a_spun_down_disk_pops_9_events(self):
        # The spinning read's six, plus the NOT READY delivery, the
        # spin-up's end (the handler resumes inside it) and the deadline
        # the server filed while the handler waited.
        assert self._read_pops(spinning=False) == Counter({
            self.SUBMIT: 1,
            self.PASS: 2,
            self.DELIVERY: 3,
            "deferred:SimulatedDisk.spin_up.<locals>.finish": 1,
            "deferred:Deadline._pop": 1,
            self.SERVICE: 1,
        })

    def _held_budget(self, monkeypatch):
        """A one-disk budget, held by a disk spinning up outside the
        gateway; returns the instant it turns IDLE and the instants of
        every ``_dispatch_ready`` call."""
        dep, gateway, objects = build_gateway("batch", power_budget_watts=8.0)
        holder = dep.disks[objects[0].disk_id]
        holder.spin_up()
        idle_at = dep.sim.now + holder.spec.spin_up_time
        passes = []
        dispatch_ready = gateway._dispatch_ready

        def counted():
            passes.append(dep.sim.now)
            return dispatch_ready()

        monkeypatch.setattr(gateway, "_dispatch_ready", counted)
        return dep, gateway, objects, idle_at, passes

    def test_a_blocked_read_dispatches_at_the_first_poll_after_the_holder_idles(
        self, monkeypatch
    ):
        dep, gateway, objects, idle_at, passes = self._held_budget(monkeypatch)
        # Half a poll off the spin-up's own instants, so no tie decides.
        submitted = dep.sim.now + 0.5
        holder = []
        ref = ObjectRef(objects[1].space_id, 0, 4 * KiB)
        dep.sim.defer(0.5, lambda: holder.append(gateway.submit_op(ReadObject("t0", ref))))
        drain(dep, gateway)
        polls = math.ceil((idle_at - submitted) / POLL_INTERVAL)
        dispatched = holder[0].dispatched_at
        assert dispatched == pytest.approx(submitted + polls * POLL_INTERVAL)
        assert idle_at < dispatched <= idle_at + POLL_INTERVAL
        # The submit's pass and one per poll: nothing else ran a pass.
        blocked = [t for t in passes if submitted <= t < dispatched]
        assert blocked == pytest.approx(
            [submitted + k * POLL_INTERVAL for k in range(polls)]
        )

    def test_a_submit_between_polls_leaves_the_older_poll_no_pass(self, monkeypatch):
        dep, gateway, objects, idle_at, passes = self._held_budget(monkeypatch)
        t0 = dep.sim.now

        def submit(*targets):
            for target in targets:
                gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 4 * KiB)))

        dep.sim.defer(0.5, lambda: submit(objects[1], objects[3]))  # two wakes, one pass
        dep.sim.defer(2.75, lambda: submit(objects[2]))
        dep.sim.run(until=t0 + 5.0)
        assert idle_at > t0 + 5.0  # blocked throughout
        assert gateway.stats.batches == 0
        # start(), the first submits and their polls at 1.5 and 2.5, the
        # last submit and its polls; the poll the pass at 2.5 armed for
        # 3.5 is stale and runs no pass.
        assert passes == pytest.approx(
            [t0 + dt for dt in (0.0, 0.5, 1.5, 2.5, 2.75, 3.75, 4.75)]
        )


class TestLegacySubmitShim:
    def test_mixed_shapes_are_rejected(self):
        """Only the typed op is accepted; the positional shape is gone."""
        dep, gateway, objects = build_gateway("batch")
        target = objects[0]
        op = ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB))
        with pytest.raises(TypeError):
            gateway.submit_op(op, target.space_id, 0, 1 * MiB)
        with pytest.raises(TypeError):
            gateway.submit_op()
        with pytest.raises(TypeError):
            gateway.submit_op("t0", target.space_id, 0, 1 * MiB)

    def test_typed_submit_does_not_warn(self):
        dep, gateway, objects = build_gateway("batch")
        target = objects[0]
        holder = []

        def typed_submit():
            holder.append(
                gateway.submit_op(ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB)))
            )

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            dep.sim.defer(0.0, typed_submit)
            drain(dep, gateway)
        assert holder[0].state is RequestState.COMPLETED


class TestTrafficGenerator:
    def test_open_loop_rate_scales_with_users(self):
        """Doubling the logical user count doubles offered load without
        adding simulation processes (one arrival loop per tenant)."""

        def offered(users):
            tenant = TenantSpec(
                name="t0",
                users=users,
                rate_per_user=0.01,
                slo_seconds=300.0,
                max_queue_depth=10_000,
            )
            dep, gateway, _ = build_gateway("batch", tenants=(tenant,), seed=9)
            generator = OpenLoopTrafficGenerator(dep.sim, gateway, dep.rng)
            processes = generator.start(60.0)
            assert len(processes) == 1
            dep.sim.run(until=dep.sim.now + 60.0)
            return generator.stats["t0"].submitted

        low, high = offered(100), offered(200)  # 1 req/s vs 2 req/s
        assert 30 < low < 90
        assert 90 < high < 180
        assert 1.5 < high / low < 3.0

    def test_rejections_counted_not_raised(self):
        """The open-loop generator sheds rejected arrivals and keeps
        offering (no backpressure into the arrival process)."""
        tenant = TenantSpec(
            name="t0",
            users=100,
            rate_per_user=0.05,  # 5 req/s against cold disks
            slo_seconds=300.0,
            max_queue_depth=8,
        )
        dep, gateway, _ = build_gateway("batch", tenants=(tenant,), seed=9)
        generator = OpenLoopTrafficGenerator(dep.sim, gateway, dep.rng)
        generator.start(30.0)
        dep.sim.run(until=dep.sim.now + 30.0)
        stats = generator.stats["t0"]
        assert stats.submitted == gateway.stats.admitted
        assert stats.rejected == gateway.stats.rejected
        assert stats.submitted + stats.rejected > 100


class TestGatewaySloExperiment:
    def test_run_point_is_deterministic(self):
        """Same seed, same scheduler: identical replay digest, identical
        metric-dump bytes, identical summary."""

        def once():
            registry = MetricsRegistry()
            with EventDigest().under() as digest:
                summary = gateway_slo.run_point(
                    "batch",
                    metrics=registry,
                    seed=5,
                    duration=30.0,
                    detect_races=True,
                )
            races = summary.pop("races")
            return digest.hexdigest(), export_json(registry), summary, races

        first = once()
        second = once()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]
        assert first[3] == [] and second[3] == []

    def test_control_plane_change_leaves_summary_alone(self, monkeypatch):
        """Each network link draws its own jitter, so a change to
        control-plane traffic alone (session pings every quarter of the
        session timeout instead of every third) leaves the gateway
        summary identical."""
        baseline = gateway_slo.run_point("batch", duration=60.0)
        monkeypatch.setattr(coord_client, "_PING_INTERVAL", SESSION_TIMEOUT / 4)
        assert gateway_slo.run_point("batch", duration=60.0) == baseline

    def test_experiment_contract(self):
        experiment = gateway_slo.EXPERIMENT
        assert experiment.name == "gateway_slo"
        assert "seed" in experiment.params
        assert experiment.paper_ref
