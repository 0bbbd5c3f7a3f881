"""Bandwidth fair-sharing model tests (the physics behind Figure 5)."""

import pytest

from repro.disk import ConnectionType, DiskModel
from repro.fabric import BandwidthModel, Flow, prototype_fabric, plan_switches, execute_plan
from repro.units import KiB, MiB
from repro.workload import AccessPattern, WorkloadSpec

MODEL = DiskModel(connection=ConnectionType.HUB_AND_SWITCH)


def flows_on_host(fabric, host, spec, count=None):
    """Build one flow per disk currently attached to ``host``."""
    disks = [d for d, h in fabric.attachment_map().items() if h == host]
    if count is not None:
        disks = disks[:count]
    demand = MODEL.demand_bytes_per_second(spec)
    return [
        Flow(
            flow_id=f"f-{d}",
            disk_id=d,
            demand=demand,
            is_read=spec.read_fraction >= 0.5,
            io_size=spec.transfer_size,
        )
        for d in disks
    ]


def gather_disks_on_host(fabric, host, wanted):
    """Move whole leaf groups onto ``host`` until it serves ``wanted`` disks.

    Moving leaf-hub siblings together keeps every command conflict-free
    on the prototype fabric (the shared leaf switch is wholly involved).
    """
    from repro.fabric import SwitchConflict

    group = 0
    while group < 8:
        mine = [d for d, h in fabric.attachment_map().items() if h == host]
        if len(mine) >= wanted:
            return mine[:wanted]
        siblings = [f"disk{2 * group}", f"disk{2 * group + 1}"]
        if fabric.attached_host(siblings[0]) != host:
            try:
                execute_plan(
                    fabric, plan_switches(fabric, [(d, host) for d in siblings])
                )
            except SwitchConflict:
                pass
        group += 1
    mine = [d for d, h in fabric.attachment_map().items() if h == host]
    return mine[:wanted]


class TestAllocation:
    def test_single_disk_disk_limited(self):
        f = prototype_fabric()
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        flows = flows_on_host(f, "host0", spec, count=1)
        allocation = BandwidthModel(f).allocate(flows)
        assert allocation.total() == pytest.approx(
            MODEL.demand_bytes_per_second(spec), rel=1e-6
        )

    def test_two_disks_saturate_root(self):
        """§VII-A: two disks fill the ~300MB/s root port on large I/O."""
        f = prototype_fabric()
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        flows = flows_on_host(f, "host0", spec, count=2)
        allocation = BandwidthModel(f).allocate(flows)
        assert allocation.total() == pytest.approx(300e6, rel=1e-6)

    def test_share_is_even(self):
        """§VII-A: bandwidth is shared evenly among disks on one host."""
        f = prototype_fabric()
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        flows = flows_on_host(f, "host0", spec, count=4)
        allocation = BandwidthModel(f).allocate(flows)
        rates = list(allocation.rates.values())
        assert max(rates) == pytest.approx(min(rates), rel=1e-9)
        assert rates[0] == pytest.approx(75e6, rel=1e-6)

    def test_duplex_reaches_540(self):
        """§VII-A: half reads + half writes total 540MB/s on one port."""
        f = prototype_fabric()
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        demand = MODEL.demand_bytes_per_second(spec)
        disks = [d for d, h in f.attachment_map().items() if h == "host0"]
        flows = [
            Flow(f"f{i}", d, demand, is_read=(i % 2 == 0), io_size=4 * MiB)
            for i, d in enumerate(disks)
        ]
        allocation = BandwidthModel(f).allocate(flows)
        assert allocation.total() == pytest.approx(540e6, rel=1e-6)

    def test_one_direction_capped_at_300(self):
        f = prototype_fabric()
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        flows = flows_on_host(f, "host0", spec, count=4)
        allocation = BandwidthModel(f).allocate(flows)
        assert allocation.total() == pytest.approx(300e6, rel=1e-6)

    def test_small_io_hits_command_rate(self):
        """4KB flows saturate the per-port IOPS budget, not bytes."""
        f = prototype_fabric()
        spec = WorkloadSpec(4 * KiB, AccessPattern.SEQUENTIAL, 1.0)
        flows = flows_on_host(f, "host0", spec, count=4)
        for extra_host in ("host1", "host2", "host3"):
            flows += flows_on_host(f, extra_host, spec, count=4)
        # All 16 disks: each root port carries only its own 4 disks.
        allocation = BandwidthModel(f).allocate(flows)
        per_disk = MODEL.demand_bytes_per_second(spec)
        # 4 disks/port at ~5.2k IO/s each is under the 45k budget.
        assert allocation.total() == pytest.approx(16 * per_disk, rel=1e-6)

    def test_twelve_disks_on_one_host_saturate_iops(self):
        """Figure 5: the 4KB sequential curve flattens by 8-12 disks."""
        f = prototype_fabric()
        disks = gather_disks_on_host(f, "host0", 12)
        assert len(disks) == 12
        spec = WorkloadSpec(4 * KiB, AccessPattern.SEQUENTIAL, 1.0)
        demand = MODEL.demand_bytes_per_second(spec)
        flows = [Flow(f"f{d}", d, demand, is_read=True, io_size=4 * KiB) for d in disks]
        allocation = BandwidthModel(f).allocate(flows)
        total_iops = allocation.total() / (4 * KiB)
        assert total_iops == pytest.approx(45_000, rel=1e-6)

    def test_flows_on_different_hosts_independent(self):
        f = prototype_fabric()
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        flows = flows_on_host(f, "host0", spec, count=2) + flows_on_host(
            f, "host1", spec, count=2
        )
        allocation = BandwidthModel(f).allocate(flows)
        assert allocation.total() == pytest.approx(600e6, rel=1e-6)

    def test_four_port_aggregate_2160(self):
        """§VII-A: 4 root paths at 540MB/s duplex total 2160MB/s."""
        f = prototype_fabric()
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        demand = MODEL.demand_bytes_per_second(spec)
        flows = []
        for host_index in range(4):
            disks = [
                d for d, h in f.attachment_map().items() if h == f"host{host_index}"
            ]
            for i, d in enumerate(disks):
                flows.append(
                    Flow(f"f{d}", d, demand, is_read=(i % 2 == 0), io_size=4 * MiB)
                )
        allocation = BandwidthModel(f).allocate(flows)
        assert allocation.total() == pytest.approx(2160e6, rel=1e-6)

    def test_detached_disk_rejected(self):
        f = prototype_fabric()
        f.node("leafhub0").fail()
        flow = Flow("x", "disk0", 100e6, is_read=True)
        with pytest.raises(ValueError):
            BandwidthModel(f).allocate([flow])

    def test_duplicate_flow_id_rejected(self):
        f = prototype_fabric()
        flows = [
            Flow("same", "disk0", 1e6, is_read=True),
            Flow("same", "disk1", 1e6, is_read=True),
        ]
        with pytest.raises(ValueError):
            BandwidthModel(f).allocate(flows)

    def test_empty_flows(self):
        f = prototype_fabric()
        assert BandwidthModel(f).allocate([]).total() == 0.0

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            Flow("x", "disk0", -1.0, is_read=True)

    def test_demand_cap_respected(self):
        f = prototype_fabric()
        flows = [Flow("slow", "disk0", 5e6, is_read=True)]
        allocation = BandwidthModel(f).allocate(flows)
        assert allocation.rate("slow") == pytest.approx(5e6)
