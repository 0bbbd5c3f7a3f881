"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.coord import NoNodeError, ZnodeTree
from repro.disk import ConnectionType, DiskModel
from repro.fabric import (
    BandwidthModel,
    Flow,
    dual_tree_fabric,
    plan_switches,
    prototype_fabric,
    ring_fabric,
    SwitchConflict,
    validate_fabric,
)
from repro.fabric.bandwidth import DUPLEX_CAPACITY, PER_DIRECTION_CAPACITY
from repro.units import KiB, MiB
from repro.workload import AccessPattern, WorkloadSpec

# ----------------------------------------------------------------------
# Fabric invariants
# ----------------------------------------------------------------------

switch_states = st.lists(st.booleans(), min_size=24, max_size=24)


class TestFabricPartitionInvariant:
    """§III-A: *any* switch configuration partitions the fabric into
    non-overlapping trees, each disk attached to at most one host."""

    @given(states=switch_states)
    @settings(max_examples=60, deadline=None)
    def test_any_configuration_is_a_valid_partition(self, states):
        fabric = prototype_fabric()
        for switch, state in zip(fabric.switches, states):
            switch.state = int(state)
        attachment = fabric.attachment_map()
        # Every disk resolves to exactly one host port or none (no
        # ambiguity, no cycles — trace_up would raise on a cycle).
        assert set(attachment) == {d.node_id for d in fabric.disks}
        # Paths of disks attached to different ports never share a
        # directed link in the same direction toward two roots: walking
        # up from any node is deterministic, so two disks reaching
        # different roots can share no node.
        node_owner = {}
        for disk_id, host in attachment.items():
            if host is None:
                continue
            walk = fabric.trace_up(disk_id)
            root = walk[-1]
            for node_id in walk[1:]:
                claimed = node_owner.setdefault(node_id, root)
                assert claimed == root, f"{node_id} reaches two roots"

    @given(states=switch_states)
    @settings(max_examples=30, deadline=None)
    def test_every_disk_keeps_full_reachability(self, states):
        """Switch states never destroy *potential* reachability."""
        fabric = prototype_fabric()
        for switch, state in zip(fabric.switches, states):
            switch.state = int(state)
        for disk in fabric.disks:
            assert len(fabric.reachable_hosts(disk.node_id)) == 4


class TestAlgorithm1Invariant:
    """Algorithm 1 must never disturb a disk outside the command."""

    @given(
        disk_index=st.integers(min_value=0, max_value=15),
        host_index=st.integers(min_value=0, max_value=3),
        prior_states=switch_states,
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_preserves_uninvolved_disks(self, disk_index, host_index, prior_states):
        fabric = prototype_fabric()
        for switch, state in zip(fabric.switches, prior_states):
            switch.state = int(state)
        disk_id = f"disk{disk_index}"
        host_id = f"host{host_index}"
        before = fabric.attachment_map()
        try:
            plan = plan_switches(fabric, [(disk_id, host_id)])
        except SwitchConflict:
            return  # refusing is always safe
        fabric.apply_settings(plan.turns)
        after = fabric.attachment_map()
        assert after[disk_id] == host_id
        for other, owner in before.items():
            if other != disk_id and owner is not None:
                assert after[other] == owner, f"{other} was disturbed"

    @given(
        pair_count=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_pair_plans_satisfy_all_pairs(self, pair_count, seed):
        import random

        rng = random.Random(seed)
        fabric = prototype_fabric()
        disks = rng.sample([d.node_id for d in fabric.disks], pair_count)
        pairs = [(d, f"host{rng.randrange(4)}") for d in disks]
        try:
            plan = plan_switches(fabric, pairs)
        except SwitchConflict:
            return
        fabric.apply_settings(plan.turns)
        for disk_id, host_id in pairs:
            assert fabric.attached_host(disk_id) == host_id


class TestBuilderProperties:
    @given(
        num_hosts=st.sampled_from([2, 3, 4, 6]),
        disks_per_leaf=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_ring_fabrics_validate(self, num_hosts, disks_per_leaf):
        fabric = ring_fabric(num_hosts=num_hosts, disks_per_leaf=disks_per_leaf)
        report = validate_fabric(fabric, require_full_reachability=num_hosts <= 4)
        assert report.ok, report.errors

    @given(
        num_disks=st.integers(min_value=1, max_value=24),
        num_hosts=st.sampled_from([2, 4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_dual_tree_fabrics_validate(self, num_disks, num_hosts):
        fabric = dual_tree_fabric(num_disks=num_disks, num_hosts=num_hosts)
        report = validate_fabric(fabric)
        assert report.ok, report.errors


# ----------------------------------------------------------------------
# Bandwidth allocator invariants
# ----------------------------------------------------------------------


class TestBandwidthProperties:
    @given(
        demands=st.lists(
            st.floats(min_value=1e5, max_value=5e8), min_size=1, max_size=16
        ),
        reads=st.lists(st.booleans(), min_size=16, max_size=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_allocation_respects_all_caps(self, demands, reads):
        fabric = prototype_fabric()
        disks = [d.node_id for d in fabric.disks][: len(demands)]
        flows = [
            Flow(f"f{i}", disks[i], demands[i], is_read=reads[i], io_size=4 * MiB)
            for i in range(len(disks))
        ]
        model = BandwidthModel(fabric)
        allocation = model.allocate(flows)
        eps = 1e-6
        # Per-flow demand cap.
        for flow in flows:
            assert allocation.rate(flow.flow_id) <= flow.demand * (1 + eps)
        # Per-port directional and duplex caps.
        for port in fabric.host_ports:
            for direction in (True, False):
                total = sum(
                    allocation.rate(f.flow_id)
                    for f in flows
                    if f.is_read is direction
                    and fabric.trace_up(f.disk_id)[-1] == port.node_id
                )
                assert total <= PER_DIRECTION_CAPACITY * (1 + eps)
            both = sum(
                allocation.rate(f.flow_id)
                for f in flows
                if fabric.trace_up(f.disk_id)[-1] == port.node_id
            )
            assert both <= DUPLEX_CAPACITY * (1 + eps)

    @given(
        demand=st.floats(min_value=1e6, max_value=5e8),
        count=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_equal_demands_get_equal_rates(self, demand, count):
        fabric = prototype_fabric()
        disks = [d for d, h in fabric.attachment_map().items() if h == "host0"][:count]
        flows = [Flow(f"f{d}", d, demand, is_read=True) for d in disks]
        allocation = BandwidthModel(fabric).allocate(flows)
        rates = [allocation.rate(f.flow_id) for f in flows]
        assert max(rates) - min(rates) <= 1e-6 * max(rates) + 1e-9

    @given(demand=st.floats(min_value=1e6, max_value=2e8))
    @settings(max_examples=20, deadline=None)
    def test_adding_a_flow_never_increases_another(self, demand):
        fabric = prototype_fabric()
        disks = [d for d, h in fabric.attachment_map().items() if h == "host0"]
        base = [Flow("a", disks[0], demand, is_read=True)]
        more = base + [Flow("b", disks[1], demand, is_read=True)]
        model = BandwidthModel(fabric)
        alone = model.allocate(base).rate("a")
        shared = model.allocate(more).rate("a")
        assert shared <= alone * (1 + 1e-9)


# ----------------------------------------------------------------------
# Disk model invariants
# ----------------------------------------------------------------------


class TestDiskModelProperties:
    @given(
        size=st.integers(min_value=512, max_value=16 * MiB),
        read_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        connection=st.sampled_from(list(ConnectionType)),
    )
    @settings(max_examples=60, deadline=None)
    def test_service_time_positive_and_finite(self, size, read_fraction, connection):
        model = DiskModel(connection=connection)
        for pattern in AccessPattern:
            spec = WorkloadSpec(size, pattern, read_fraction)
            t = model.service_time(spec)
            assert 0 < t < 10.0

    @given(
        size=st.integers(min_value=4 * KiB, max_value=8 * MiB),
        connection=st.sampled_from(list(ConnectionType)),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_never_faster_than_sequential(self, size, connection):
        model = DiskModel(connection=connection)
        for rf in (0.0, 1.0):
            seq = model.service_time(WorkloadSpec(size, AccessPattern.SEQUENTIAL, rf))
            rand = model.service_time(WorkloadSpec(size, AccessPattern.RANDOM, rf))
            assert rand >= seq

    @given(
        small=st.integers(min_value=512, max_value=1 * MiB),
        factor=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_bigger_transfers_have_better_bandwidth(self, small, factor):
        model = DiskModel()
        spec_small = WorkloadSpec(small, AccessPattern.SEQUENTIAL, 1.0)
        spec_big = WorkloadSpec(small * factor, AccessPattern.SEQUENTIAL, 1.0)
        assert (
            model.throughput(spec_big).bytes_per_second
            >= model.throughput(spec_small).bytes_per_second
        )


# ----------------------------------------------------------------------
# Znode tree invariants
# ----------------------------------------------------------------------

_name = st.text(alphabet="abcdefg", min_size=1, max_size=3)


@st.composite
def _tree_ops(draw):
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["create", "delete", "set"]), _name, _name),
            min_size=1,
            max_size=30,
        )
    )
    return ops


class TestZnodeProperties:
    @given(ops=_tree_ops())
    @settings(max_examples=60, deadline=None)
    def test_tree_consistency_under_random_ops(self, ops):
        tree = ZnodeTree()
        for op, a, b in ops:
            path = f"/{a}"
            child = f"/{a}/{b}"
            try:
                if op == "create":
                    if not tree.exists(path):
                        tree.create(path)
                    else:
                        tree.create(child)
                elif op == "delete":
                    tree.delete(path, recursive=True)
                elif op == "set":
                    tree.set_data(path, b)
            except (NoNodeError, Exception):
                pass
            # Invariants: root always exists, every child's path is
            # prefixed by its parent's, dump matches traversal.
            assert tree.exists("/")
            dump = tree.dump()
            for node_path in dump:
                if node_path == "/":
                    continue
                parent = node_path.rsplit("/", 1)[0] or "/"
                assert parent in dump

    @given(n=st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_sequential_names_strictly_increase(self, n):
        tree = ZnodeTree()
        tree.create("/q")
        paths = [tree.create("/q/n-", sequential=True) for _ in range(n)]
        assert paths == sorted(paths)
        assert len(set(paths)) == n

    @given(
        sessions=st.lists(st.sampled_from(["s1", "s2", "s3"]), min_size=1, max_size=12)
    )
    @settings(max_examples=30, deadline=None)
    def test_ephemeral_cleanup_removes_exactly_that_session(self, sessions):
        tree = ZnodeTree()
        tree.create("/live")
        for i, session in enumerate(sessions):
            tree.create(f"/live/n{i}", ephemeral_owner=session)
        tree.delete_ephemerals_of("s1")
        assert tree.ephemeral_paths_of("s1") == []
        for i, session in enumerate(sessions):
            if session != "s1":
                assert tree.exists(f"/live/n{i}")
