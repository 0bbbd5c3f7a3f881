"""Tests for the simulated USB stack: trees, hot-plug, enumeration."""

import pytest

from repro.fabric import execute_plan, plan_switches, prototype_fabric
from repro.sim import Simulator
from repro.usbsim import (
    UsbBus,
    UsbQuirks,
    UsbTimingParams,
    render_tree,
    usb_tree_view,
    visible_disks,
)


class Recorder:
    """Listener that records (time, kind, disk) tuples."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def on_attach(self, disk_id):
        self.log.append((self.sim.now, "attach", disk_id))

    def on_detach(self, disk_id):
        self.log.append((self.sim.now, "detach", disk_id))


class TestTreeView:
    def test_initial_visibility(self):
        f = prototype_fabric()
        for h in range(4):
            assert sorted(visible_disks(f, f"host{h}")) == sorted(
                d for d, host in f.attachment_map().items() if host == f"host{h}"
            )

    def test_tree_structure(self):
        f = prototype_fabric()
        trees = usb_tree_view(f, "host0")
        assert len(trees) == 1  # one root port per host
        root = trees[0]
        # Root hub -> two active leaf hubs -> two disks each.
        assert len(root.children) == 1
        root_hub = root.children[0]
        assert root_hub.kind == "hub"
        leaf_hubs = [c for c in root_hub.children if c.kind == "hub"]
        assert len(leaf_hubs) == 2
        for hub in leaf_hubs:
            assert len(hub.disks()) == 2

    def test_device_count_excludes_root(self):
        f = prototype_fabric()
        tree = usb_tree_view(f, "host0")[0]
        # 1 root hub + 2 leaf hubs + 4 disks = 7 devices.
        assert tree.device_count() == 7

    def test_failed_hub_disappears(self):
        f = prototype_fabric()
        f.node("leafhub0").fail()
        assert len(visible_disks(f, "host0")) == 2  # lost disks 0,1

    def test_failed_disk_disappears(self):
        f = prototype_fabric()
        f.node("disk0").fail()
        assert "disk0" not in visible_disks(f, "host0")

    def test_switch_rerouting_changes_views(self):
        f = prototype_fabric()
        execute_plan(f, plan_switches(f, [("disk0", "host2")]))
        assert "disk0" in visible_disks(f, "host2")
        assert "disk0" not in visible_disks(f, "host0")

    def test_render_is_textual(self):
        f = prototype_fabric()
        text = render_tree(usb_tree_view(f, "host0"))
        assert "Root" not in text.splitlines()[0]  # first line is the bus
        assert "MassStorage disk0" in text
        assert text.count("Hub") == 3

    def test_find(self):
        f = prototype_fabric()
        tree = usb_tree_view(f, "host0")[0]
        assert tree.find("disk0") is not None
        assert tree.find("disk4") is None


def make_bus(**kwargs):
    sim = Simulator()
    fabric = prototype_fabric()
    bus = UsbBus(sim, fabric, **kwargs)
    recorders = {}
    for h in fabric.hosts():
        recorders[h] = Recorder(sim)
        bus.register_listener(h, recorders[h])
    return sim, fabric, bus, recorders


class TestUsbBus:
    def test_boot_enumeration(self):
        sim, fabric, bus, recorders = make_bus()
        bus.sync()
        sim.run(until=30.0)
        for h in fabric.hosts():
            assert len(bus.os_view(h)) == 4
            attaches = [e for e in recorders[h].log if e[1] == "attach"]
            assert len(attaches) == 4

    def test_boot_batch_takes_base_plus_per_device(self):
        sim, fabric, bus, recorders = make_bus(
            timing=UsbTimingParams(jitter=0.0)
        )
        bus.sync()
        sim.run(until=30.0)
        last_attach = max(t for t, kind, _ in recorders["host0"].log if kind == "attach")
        assert last_attach == pytest.approx(1.30 + 4 * 0.45, abs=1e-6)

    def test_switch_moves_disk_between_hosts(self):
        sim, fabric, bus, recorders = make_bus(timing=UsbTimingParams(jitter=0.0))
        bus.sync()
        sim.run(until=30.0)
        start = sim.now
        execute_plan(fabric, plan_switches(fabric, [("disk0", "host2")]))
        bus.sync()
        sim.run(until=start + 30.0)
        assert "disk0" not in bus.os_view("host0")
        assert "disk0" in bus.os_view("host2")
        detach = [e for e in recorders["host0"].log if e == (start + 0.15, "detach", "disk0")]
        assert detach
        attach_times = [
            t for t, kind, d in recorders["host2"].log if kind == "attach" and d == "disk0"
        ]
        assert attach_times[-1] == pytest.approx(start + 1.30 + 0.45, abs=1e-6)

    def test_batch_enumeration_scales_with_count(self):
        """Figure 6 part 1: recognition delay grows with disks switched."""
        durations = {}
        for count in (1, 2, 4):
            sim, fabric, bus, recorders = make_bus(timing=UsbTimingParams(jitter=0.0))
            bus.sync()
            sim.run(until=30.0)
            start = sim.now
            # Groups 1 and 5 have their alternate leaf hub already routed
            # to host3, so each disk moves with a single disk-switch turn.
            disks = ["disk2", "disk3", "disk10", "disk11"]
            pairs = [(d, "host3") for d in disks[:count]]
            execute_plan(fabric, plan_switches(fabric, pairs))
            bus.sync()
            sim.run(until=start + 60.0)
            times = [
                t
                for t, kind, d in recorders["host3"].log
                if kind == "attach" and t > start
            ]
            durations[count] = max(times) - start
        assert durations[1] < durations[2] < durations[4]
        assert durations[2] - durations[1] == pytest.approx(0.45, abs=1e-6)

    def test_power_cut_detaches(self):
        sim, fabric, bus, recorders = make_bus()
        bus.sync()
        sim.run(until=30.0)
        bus.set_disk_power("disk0", False)
        sim.run(until=40.0)
        assert "disk0" not in bus.os_view("host0")
        bus.set_disk_power("disk0", True)
        sim.run(until=60.0)
        assert "disk0" in bus.os_view("host0")

    def test_unknown_disk_power_rejected(self):
        sim, fabric, bus, _ = make_bus()
        with pytest.raises(KeyError):
            bus.set_disk_power("diskX", True)

    def test_intel_quirk_limits_view(self):
        sim = Simulator()
        fabric = prototype_fabric()
        bus = UsbBus(sim, fabric, quirks=UsbQuirks(max_devices_per_port=2))
        bus.sync()
        sim.run(until=60.0)
        for h in fabric.hosts():
            assert len(bus.os_view(h)) == 2

    def test_detach_during_enumeration_cancels_attach(self):
        sim, fabric, bus, recorders = make_bus(timing=UsbTimingParams(jitter=0.0))
        bus.sync()
        # Before enumeration finishes (takes >1.3s), move disk0 away.
        def flip():
            execute_plan(fabric, plan_switches(fabric, [("disk0", "host2")]))
            bus.sync()

        sim.defer(0.5, flip)
        sim.run(until=30.0)
        assert "disk0" not in bus.os_view("host0")
        assert "disk0" in bus.os_view("host2")

    def test_undetected_switch_adds_power_cycle_delay(self):
        sim = Simulator()
        fabric = prototype_fabric()
        bus = UsbBus(
            sim,
            fabric,
            timing=UsbTimingParams(jitter=0.0),
            quirks=UsbQuirks(undetected_switch_probability=1.0, power_cycle_delay=4.0),
        )
        rec = Recorder(sim)
        bus.register_listener("host0", rec)
        bus.sync()
        sim.run(until=60.0)
        first_attach = min(t for t, kind, _ in rec.log if kind == "attach")
        assert first_attach >= 1.30 + 0.45 + 4.0

    def test_failure_then_sync_detaches_subtree(self):
        sim, fabric, bus, recorders = make_bus()
        bus.sync()
        sim.run(until=30.0)
        fabric.node("leafhub0").fail()
        bus.sync()
        sim.run(until=40.0)
        view = bus.os_view("host0")
        assert "disk0" not in view and "disk1" not in view
