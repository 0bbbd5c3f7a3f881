"""Tests for repro.tiering: staging, policy, migration, attribution.

Unit tests cover the segmented-LRU promotion filter and the bounded
staging buffer in isolation; integration tests drive a real
:class:`TieredStore` over a full 16-disk deployment — staged writes
ack at hot latency, the orchestrator demotes into idle watts and
pauses under cold-read pressure, promotion moves repeat readers onto
the hot tier, and SLO burn-rate alerts blame the migration tenant
(never user tenants) for background pressure.
"""

import pytest

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.disk.states import DiskPowerState
from repro.gateway import (
    Gateway,
    GatewayConfig,
    ObjectRef,
    QueueFullError,
    ReadObject,
    TenantSpec,
    mount_gateway_spaces,
)
from repro.obs import FlightRecorder, RequestTracer, SloMonitor, SloObjective
from repro.power import FixedTimeoutPolicy, run_policy
from repro.sim import Simulator
from repro.tiering import (
    MigrationOrchestrator,
    ObjectMissingError,
    SegmentedLruPolicy,
    StagingBuffer,
    StagingFullError,
    TierState,
    TieredObject,
    TieredStore,
    TieringConfig,
    TieringError,
    pinned_disks_for,
)
from repro.units import KiB, MiB

from tests.test_gateway import drain

ARCHIVE = TenantSpec(name="archive", slo_seconds=120.0, max_queue_depth=10_000)
MIGRATION = TenantSpec(
    name="migration", weight=0.5, slo_seconds=600.0, max_queue_depth=10_000
)
OBJECT_BYTES = 256 * KiB


def staged_obj(uid, size=OBJECT_BYTES, cold_space="/u/d1/s"):
    return TieredObject(
        uid=uid,
        size=size,
        cold_space=cold_space,
        state=TierState.STAGED,
        written_at=0.0,
    )


class TestSegmentedLruPolicy:
    def test_second_access_promotes_once(self):
        policy = SegmentedLruPolicy()
        assert policy.record_access("a", 0.0) is False
        assert policy.record_access("a", 1.0) is True
        # Already protected: refreshes never re-promote.
        assert policy.record_access("a", 2.0) is False
        assert policy.is_protected("a")

    def test_probation_capacity_evicts_lru(self):
        policy = SegmentedLruPolicy(probation_capacity=2)
        policy.record_access("a", 0.0)
        policy.record_access("b", 1.0)
        policy.record_access("c", 2.0)  # evicts "a" from probation
        assert policy.record_access("a", 3.0) is False  # back to square one
        assert policy.record_access("c", 4.0) is True  # survived on probation

    def test_idle_entries_become_demotion_candidates(self):
        policy = SegmentedLruPolicy(idle_seconds=10.0)
        policy.record_access("a", 0.0)
        policy.record_access("a", 1.0)
        assert policy.demotion_candidates(5.0) == []
        assert policy.demotion_candidates(11.0) == ["a"]
        assert not policy.is_protected("a")

    def test_protected_capacity_overflow_demotes_lru_first(self):
        policy = SegmentedLruPolicy(protected_capacity=1, idle_seconds=1e9)
        for uid in ("a", "b"):
            policy.record_access(uid, 0.0)
            policy.record_access(uid, 1.0)
        assert policy.demotion_candidates(2.0) == ["a"]
        assert policy.is_protected("b")

    def test_withdraw_puts_a_verdict_back_on_probation(self):
        policy = SegmentedLruPolicy()
        policy.record_access("a", 0.0)
        assert policy.record_access("a", 1.0) is True
        policy.withdraw("a")
        assert policy.sizes() == {"probation": 1, "protected": 0}
        assert policy.record_access("a", 2.0) is True  # the next access asks again
        policy.withdraw("never-seen")  # nothing to take back
        assert policy.sizes() == {"probation": 0, "protected": 1}

    def test_reset_forgets_everything(self):
        policy = SegmentedLruPolicy()
        policy.record_access("a", 0.0)
        policy.record_access("a", 1.0)
        policy.reset()
        assert policy.sizes() == {"probation": 0, "protected": 0}
        assert policy.record_access("a", 2.0) is False


class TestStagingBuffer:
    def test_bounded_reserve_raises_and_counts(self):
        buffer = StagingBuffer(capacity_bytes=2 * OBJECT_BYTES)
        buffer.reserve(OBJECT_BYTES)
        buffer.reserve(OBJECT_BYTES)
        with pytest.raises(StagingFullError):
            buffer.reserve(1)
        assert buffer.overflows == 1
        buffer.release(OBJECT_BYTES)
        buffer.reserve(OBJECT_BYTES)  # freed bytes admit again

    def test_take_batch_is_fifo_and_byte_bounded(self):
        buffer = StagingBuffer(capacity_bytes=10 * OBJECT_BYTES)
        objs = [staged_obj(f"u{i}") for i in range(5)]
        for obj in objs:
            buffer.enqueue(obj)
        batch = buffer.take_batch("/u/d1/s", 2 * OBJECT_BYTES)
        assert [o.uid for o in batch] == ["u0", "u1"]
        rest = buffer.take_batch("/u/d1/s", 100 * OBJECT_BYTES)
        assert [o.uid for o in rest] == ["u2", "u3", "u4"]

    def test_oversized_single_object_still_demotes(self):
        buffer = StagingBuffer(capacity_bytes=10 * MiB)
        buffer.enqueue(staged_obj("big", size=4 * MiB))
        batch = buffer.take_batch("/u/d1/s", 1 * MiB)
        assert [o.uid for o in batch] == ["big"]

    def test_requeue_preserves_fifo_order(self):
        buffer = StagingBuffer(capacity_bytes=10 * OBJECT_BYTES)
        objs = [staged_obj(f"u{i}") for i in range(4)]
        for obj in objs[2:]:
            buffer.enqueue(obj)
        buffer.requeue(objs[:2])
        batch = buffer.take_batch("/u/d1/s", 100 * OBJECT_BYTES)
        assert [o.uid for o in batch] == ["u0", "u1", "u2", "u3"]

    def test_pending_spaces_orders_by_bytes_then_name(self):
        buffer = StagingBuffer(capacity_bytes=100 * OBJECT_BYTES)
        buffer.enqueue(staged_obj("a", cold_space="/u/d2/s"))
        buffer.enqueue(staged_obj("b", cold_space="/u/d1/s"))
        buffer.enqueue(staged_obj("c", cold_space="/u/d1/s"))
        assert buffer.pending_spaces() == ["/u/d1/s", "/u/d2/s"]


class TestDeferredPolicyLoop:
    def build_disk(self):
        from repro.disk.device import SimulatedDisk

        sim = Simulator()
        disk = SimulatedDisk(sim, "d0")
        sim.run(until=1.0)
        return sim, disk

    def test_run_policy_still_spins_down_without_processes(self):
        sim, disk = self.build_disk()
        run_policy(
            sim, {"d0": disk}, FixedTimeoutPolicy(idle_timeout=5.0), check_interval=1.0
        )
        sim.run(until=60.0)
        assert disk.power_state is DiskPowerState.SPUN_DOWN


def build_tiered(
    seed=7,
    hot_spaces=2,
    power_budget_watts=40.0,
    tracer=None,
    start_orchestrator=True,
    archive=ARCHIVE,
    migration=MIGRATION,
    **tiering_kwargs,
):
    """A settled 16-disk deployment: pinned hot tier + tiered store."""
    dep = build_deployment(config=DeploymentConfig(seed=seed), tracer=tracer)
    dep.settle(15.0)
    objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
    for disk_id in sorted(dep.disks):
        dep.disks[disk_id].spin_down()
    pinned = pinned_disks_for(objects, hot_spaces)
    gateway = Gateway(
        dep.sim,
        (archive, migration),
        GatewayConfig(
            power_budget_watts=power_budget_watts,
            scheduler="batch",
            pinned_disks=pinned,
        ),
    )
    gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
    gateway.start()
    store = TieredStore(
        gateway,
        TieringConfig(
            tenant="archive",
            migration_tenant="migration",
            hot_spaces=hot_spaces,
            **tiering_kwargs,
        ),
    )
    store.start()
    orchestrator = MigrationOrchestrator(store)
    if start_orchestrator:
        orchestrator.start()
    # Let the hot tier finish spinning up so staged acks are hot-speed.
    dep.sim.run(until=dep.sim.now + 10.0)
    return dep, gateway, store, orchestrator


def drain_tiering(dep, gateway, store, cap=600.0):
    """Drain foreground *and* background: queues, staging, demotions."""
    deadline = dep.sim.now + cap
    dep.sim.run(until=dep.sim.now + 1.0)
    while dep.sim.now < deadline and (
        not gateway.drained()
        or store.pending_demotion_bytes() > 0
        or store.inflight_demotions > 0
    ):
        dep.sim.run(until=dep.sim.now + 5.0)
    assert gateway.drained(), "gateway failed to drain"


def one_cold_object(dep, gateway, store, uid="uid-0"):
    """Write ``uid`` and let the orchestrator demote it; returns ``uid``."""
    dep.sim.defer(0.0, lambda: store.write(uid, OBJECT_BYTES))
    drain_tiering(dep, gateway, store)
    assert store.residency(uid) == "cold"
    return uid


class TestTieredStoreStaging:
    def test_staged_writes_ack_at_hot_latency(self):
        dep, gateway, store, _ = build_tiered(start_orchestrator=False)
        objs = []

        def ingest():
            for i in range(20):
                objs.append(store.write(f"uid-{i}", OBJECT_BYTES))

        dep.sim.defer(0.0, ingest)
        drain(dep, gateway)
        assert store.stats.staged == 20
        assert all(o.state is TierState.STAGED for o in objs)
        # Hot disks were already spinning: no spin-up in any ack path.
        acks = [o.acked_at - o.written_at for o in objs]
        assert max(acks) < 2.0, f"staged ack saw a spin-up: {max(acks)}"
        assert all(store.residency(o.uid) == "hot" for o in objs)
        assert all(store.durable_tiers(o.uid) == ["hot"] for o in objs)

    def test_pinned_hot_disks_never_spin_down(self):
        dep, gateway, store, _ = build_tiered(start_orchestrator=False)
        # Idle far past the spin-down timeout.
        dep.sim.run(until=dep.sim.now + 120.0)
        for disk_id in gateway.config.pinned_disks:
            assert dep.disks[disk_id].power_state is DiskPowerState.IDLE
        # Unpinned disks did spin down.
        unpinned = sorted(set(dep.disks) - set(gateway.config.pinned_disks))
        assert all(
            dep.disks[d].power_state is DiskPowerState.SPUN_DOWN for d in unpinned
        )

    def test_staging_bound_backpressures(self):
        dep, gateway, store, _ = build_tiered(
            start_orchestrator=False,
            staging_capacity_bytes=3 * OBJECT_BYTES,
        )

        def ingest():
            for i in range(3):
                store.write(f"uid-{i}", OBJECT_BYTES)
            with pytest.raises(StagingFullError):
                store.write("uid-overflow", OBJECT_BYTES)

        dep.sim.defer(0.0, ingest)
        drain(dep, gateway)
        assert store.staging.overflows == 1
        assert store.stats.written == 3

    def test_write_the_hot_log_refuses_keeps_no_staging(self):
        """A write larger than one hot space passes the staging bound
        but is refused by the hot log; it must give its reservation
        back, or the next write that fits is refused as well."""
        dep, gateway, store, _ = build_tiered(
            start_orchestrator=False, staging_capacity_bytes=2 * 64 * MiB
        )
        staged_after_refusal = []

        def ingest():
            with pytest.raises(TieringError, match="exceeds hot log"):
                store.write("uid-big", 100 * MiB)
            staged_after_refusal.append(store.staging.staged_bytes)
            store.write("uid-next", 40 * MiB)

        dep.sim.defer(0.0, ingest)
        drain(dep, gateway)
        assert staged_after_refusal == [0]
        assert store.staging.overflows == 0
        assert store.stats.written == store.stats.staged == 1

    def test_write_the_gateway_refuses_leaves_no_trace(self):
        """Writes the archive tenant's full queue refuses are not
        indexed, counted or staged, and take no hot-log extent."""
        dep, gateway, store, _ = build_tiered(
            hot_spaces=1,
            start_orchestrator=False,
            archive=TenantSpec(name="archive", slo_seconds=120.0, max_queue_depth=2),
        )
        refused = []

        def ingest():
            for i in range(4):
                try:
                    store.write(f"uid-{i}", OBJECT_BYTES)
                except QueueFullError:
                    refused.append(f"uid-{i}")

        dep.sim.defer(0.0, ingest)
        dep.sim.run(until=dep.sim.now + 60.0)
        assert refused == ["uid-2", "uid-3"]
        assert store.stats.written == store.stats.staged == 2
        assert store.staging.staged_bytes == 2 * OBJECT_BYTES
        for uid in refused:
            with pytest.raises(ObjectMissingError):
                store.residency(uid)
        # The hot log continues right after the two admitted writes.
        later = store.write("uid-4", OBJECT_BYTES)
        assert later.hot_ref.offset == 2 * OBJECT_BYTES

    def test_duplicate_uid_rejected(self):
        dep, gateway, store, _ = build_tiered(start_orchestrator=False)

        def ingest():
            store.write("uid-0", OBJECT_BYTES)
            with pytest.raises(TieringError):
                store.write("uid-0", OBJECT_BYTES)

        dep.sim.defer(0.0, ingest)
        drain(dep, gateway)


class TestMigration:
    def test_background_demotion_moves_everything_cold(self):
        dep, gateway, store, orchestrator = build_tiered()
        objs = []

        def ingest():
            for i in range(30):
                objs.append(store.write(f"uid-{i}", OBJECT_BYTES))

        dep.sim.defer(0.0, ingest)
        drain_tiering(dep, gateway, store)
        assert store.stats.demoted == 30
        assert store.staging.staged_bytes == 0
        assert all(o.state is TierState.COLD for o in objs)
        # Exactly one durable tier per object after demotion commits.
        assert all(store.durable_tiers(o.uid) == ["cold"] for o in objs)
        # Each batch packed one sequential run: far fewer batches than
        # objects, all under the migration tenant.
        assert 0 < store.stats.demotion_batches < 30
        migration = gateway.stats.per_tenant["migration"]
        assert migration.completed == store.stats.demotion_batches
        assert gateway.stats.per_tenant["archive"].completed == 30

    def test_demotion_batches_are_sequential_runs(self):
        dep, gateway, store, _ = build_tiered()

        def ingest():
            for i in range(30):
                store.write(f"uid-{i}", OBJECT_BYTES)

        dep.sim.defer(0.0, ingest)
        drain_tiering(dep, gateway, store)
        by_space = {}
        for space_id in store.cold_spaces():
            media = store._cold_media.get(space_id, {})
            refs = sorted(
                (o.cold_ref.offset, o.cold_ref.size) for o in media.values()
            )
            by_space[space_id] = refs
        packed = 0
        for refs in by_space.values():
            for (off_a, size_a), (off_b, _) in zip(refs, refs[1:]):
                if off_a + size_a == off_b:
                    packed += 1
        assert packed > 0, "expected contiguously packed demotion runs"

    def test_migration_pauses_under_cold_read_pressure(self):
        dep, gateway, store, orchestrator = build_tiered(
            pressure_queue_depth=0, demotion_check_interval=1.0
        )
        cold_space = store.cold_spaces()[0]

        def ingest():
            for i in range(10):
                store.write(f"uid-{i}", OBJECT_BYTES)
            # Deep foreground backlog on one cold disk.
            for i in range(12):
                gateway.submit_op(
                    ReadObject(
                        tenant="archive",
                        ref=ObjectRef(cold_space, i * MiB, 1 * MiB),
                    )
                )

        dep.sim.defer(0.0, ingest)
        dep.sim.run(until=dep.sim.now + 6.0)
        assert orchestrator.stats.pressure_pauses > 0
        drain_tiering(dep, gateway, store)
        # Once pressure clears, demotion finishes normally.
        assert store.stats.demoted == 10

    def test_demotion_waits_for_idle_watts(self):
        # 20 W budget, 16 W of it pinned under the two hot disks: hot
        # writes (marginal cost 0) dispatch, but the 8 W a cold spin-up
        # needs never fits, so the accountant withholds every batch.
        dep, gateway, store, orchestrator = build_tiered(
            power_budget_watts=20.0,
            demotion_check_interval=1.0,
            demotion_max_age_seconds=0.0,
        )

        def ingest():
            for i in range(5):
                store.write(f"uid-{i}", OBJECT_BYTES)

        dep.sim.defer(0.0, ingest)
        dep.sim.run(until=dep.sim.now + 30.0)
        assert orchestrator.stats.power_skips > 0
        assert store.stats.demotion_batches == 0
        assert store.pending_demotion_bytes() > 0


class TestPromotion:
    def test_repeat_cold_reads_promote_to_hot(self):
        dep, gateway, store, _ = build_tiered()
        uid = "uid-0"

        def ingest():
            for i in range(8):
                store.write(f"uid-{i}", OBJECT_BYTES)

        dep.sim.defer(0.0, ingest)
        drain_tiering(dep, gateway, store)
        assert store.residency(uid) == "cold"

        def read_twice():
            store.read(uid)
            store.read(uid)

        dep.sim.defer(0.0, read_twice)
        drain_tiering(dep, gateway, store)
        assert store.stats.promotions == 1
        assert store.residency(uid) == "hot"
        assert sorted(store.durable_tiers(uid)) == ["cold", "hot"]

        reads = []
        dep.sim.defer(0.0, lambda: reads.append(store.read(uid)))
        drain(dep, gateway)
        assert store.stats.hot_reads >= 1
        assert reads[0].failure is None

    def test_reads_the_gateway_refuses_are_not_counted(self):
        """Three reads of one cold object at one instant against an
        archive queue of depth one: the two refused reads reach neither
        the stats nor the recency policy."""
        dep, gateway, store, _ = build_tiered(
            hot_spaces=1,
            archive=TenantSpec(name="archive", slo_seconds=120.0, max_queue_depth=1),
        )
        uid = one_cold_object(dep, gateway, store)
        admitted, refused = [], []

        def read_three():
            for _ in range(3):
                try:
                    admitted.append(store.read(uid))
                except QueueFullError:
                    refused.append(uid)

        dep.sim.defer(0.0, read_three)
        drain_tiering(dep, gateway, store)
        assert (len(admitted), len(refused)) == (1, 2)
        assert gateway.stats.per_tenant["archive"].rejected == 2
        assert (store.stats.cold_reads, store.stats.hot_reads) == (1, 0)
        assert store.policy.sizes() == {"probation": 1, "protected": 0}
        assert store.stats.promotions == 0
        assert admitted[0].failure is None

    def test_refused_promotion_is_dropped_and_the_next_access_promotes(self):
        """With the migration tenant's queue full, the read that earns a
        promotion is still returned; the promotion is dropped, and a
        later access promotes the object."""
        dep, gateway, store, _ = build_tiered(
            migration=TenantSpec(
                name="migration", weight=0.5, slo_seconds=600.0, max_queue_depth=1
            ),
        )
        uid = one_cold_object(dep, gateway, store)
        filler_space = next(s for s in store.cold_spaces() if s != store.cold_home(uid))
        reads = []

        def read_twice_behind_a_full_migration_queue():
            gateway.submit_op(
                ReadObject(tenant="migration", ref=ObjectRef(filler_space, 0, 1 * MiB))
            )
            reads.append(store.read(uid))
            reads.append(store.read(uid))  # earns the promotion, which is refused

        dep.sim.defer(0.0, read_twice_behind_a_full_migration_queue)
        drain_tiering(dep, gateway, store)
        assert len(reads) == 2 and all(r.failure is None for r in reads)
        assert gateway.stats.per_tenant["migration"].rejected == 1
        assert store.stats.promotions == 0
        assert store.residency(uid) == "cold"

        dep.sim.defer(0.0, lambda: store.read(uid))
        drain_tiering(dep, gateway, store)
        assert store.stats.promotions == 1
        assert store.residency(uid) == "hot"

    def test_failed_promotion_lets_the_next_access_promote(self):
        """A promotion whose hot write fails gives its verdict back to
        the policy, so a later access tries again."""
        dep, gateway, store, _ = build_tiered(hot_spaces=1)
        uid = one_cold_object(dep, gateway, store)
        hot_disk = dep.disks[gateway.config.pinned_disks[0]]

        def read_twice_and_fail_the_hot_disk():
            store.read(uid)
            store.read(uid)  # earns the promotion, whose write will fail
            hot_disk.fail()

        dep.sim.defer(0.0, read_twice_and_fail_the_hot_disk)
        dep.sim.run(until=dep.sim.now + 120.0)
        assert (store.stats.promotion_failures, store.stats.promotions) == (1, 0)
        hot_disk.repair()
        dep.sim.defer(0.0, lambda: store.read(uid))
        drain_tiering(dep, gateway, store)
        assert store.stats.promotions == 1
        assert store.residency(uid) == "hot"

    def test_idle_promoted_objects_are_evicted_for_free(self):
        dep, gateway, store, orchestrator = build_tiered(
            hot_idle_seconds=20.0, demotion_check_interval=1.0
        )
        uid = "uid-0"

        def ingest():
            for i in range(4):
                store.write(f"uid-{i}", OBJECT_BYTES)

        dep.sim.defer(0.0, ingest)
        drain_tiering(dep, gateway, store)
        dep.sim.defer(0.0, lambda: (store.read(uid), store.read(uid)))
        drain_tiering(dep, gateway, store)
        assert store.residency(uid) == "hot"
        passes_before = gateway.stats.disk_passes
        dep.sim.run(until=dep.sim.now + 60.0)
        assert store.stats.evictions == 1
        assert store.residency(uid) == "cold"
        assert store.durable_tiers(uid) == ["cold"]
        # Eviction moved no data: not a single extra disk pass.
        assert gateway.stats.disk_passes == passes_before


class TestMigrationAttribution:
    def test_slo_alerts_blame_migration_not_users(self):
        # A migration tenant with a deliberately impossible deadline:
        # every demotion batch misses it, burning the migration error
        # budget while the archive tenant stays green.
        tracer = RequestTracer()
        dep = build_deployment(config=DeploymentConfig(seed=7), tracer=tracer)
        dep.settle(15.0)
        objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
        for disk_id in sorted(dep.disks):
            dep.disks[disk_id].spin_down()
        migration = TenantSpec(
            name="migration", weight=0.5, slo_seconds=0.001, max_queue_depth=10_000
        )
        pinned = pinned_disks_for(objects, 2)
        gateway = Gateway(
            dep.sim,
            (ARCHIVE, migration),
            GatewayConfig(
                power_budget_watts=40.0, scheduler="batch", pinned_disks=pinned
            ),
        )
        gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
        gateway.start()
        recorder = FlightRecorder(tracer)
        monitor = SloMonitor(
            tracer,
            [
                SloObjective(tenant="archive", min_events=2),
                SloObjective(tenant="migration", min_events=2),
            ],
        )
        store = TieredStore(
            gateway,
            TieringConfig(
                tenant="archive",
                migration_tenant="migration",
                demotion_check_interval=1.0,
            ),
        )
        store.start()
        MigrationOrchestrator(store).start()
        dep.sim.run(until=dep.sim.now + 10.0)

        def ingest():
            for i in range(30):
                store.write(f"uid-{i}", OBJECT_BYTES)

        dep.sim.defer(0.0, ingest)
        drain_tiering(dep, gateway, store)
        fired = {a.tenant for a in monitor.alerts if a.kind == "fire"}
        assert fired == {"migration"}
        assert not monitor.firing("archive")
        # The alert snapshot reached the flight recorder, and the
        # migration traffic in it is labelled as background work.
        assert recorder.triggers_seen > 0
        dump = recorder.dumps[0]
        assert dump["trigger"]["attrs"]["tenant"] == "migration"
        background = [
            t
            for t in dump["traces"]
            if t.get("attrs", {}).get("background")
        ]
        assert background, "flight dump should carry background-tagged traces"
        monitor.detach()
        recorder.detach()


class TestGatewayPowerHelpers:
    def test_pinned_disk_must_be_attached(self):
        dep = build_deployment(config=DeploymentConfig(seed=7))
        dep.settle(15.0)
        objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
        gateway = Gateway(
            dep.sim,
            (ARCHIVE, MIGRATION),
            GatewayConfig(pinned_disks=("nope",)),
        )
        from repro.gateway import GatewayError

        with pytest.raises(GatewayError):
            gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)

    def test_store_requires_pinned_hot_disks(self):
        dep = build_deployment(config=DeploymentConfig(seed=7))
        dep.settle(15.0)
        objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
        gateway = Gateway(dep.sim, (ARCHIVE, MIGRATION), GatewayConfig())
        gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
        with pytest.raises(TieringError):
            TieredStore(gateway, TieringConfig(tenant="archive"))
