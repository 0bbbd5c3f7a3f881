"""Tests for multi-unit deployments (one Master, several deploy units)."""

import pytest

from repro.cluster import DeploymentConfig, build_deployment, parse_space_id
from repro.obs import MetricsRegistry
from repro.units import MiB


@pytest.fixture(scope="module")
def dep():
    deployment = build_deployment(config=DeploymentConfig(units=2))
    deployment.settle(15.0)
    return deployment


class TestBootstrap:
    def test_unit_census(self, dep):
        assert set(dep.units) == {"unit0", "unit1"}
        for unit in dep.units.values():
            assert len(unit.fabric.disks) == 16
            assert len(unit.endpoints) == 4

    def test_namespaces_disjoint(self, dep):
        unit0_disks = set(dep.units["unit0"].disks)
        unit1_disks = set(dep.units["unit1"].disks)
        assert not unit0_disks & unit1_disks
        assert all(d.startswith("unit0.") for d in unit0_disks)

    def test_master_sees_all_hosts(self, dep):
        master = dep.active_master()
        assert master is not None
        online = master.sysstat.online_hosts()
        assert len(online) == 8
        assert "unit0.host0" in online and "unit1.host3" in online

    def test_master_sees_all_disks(self, dep):
        master = dep.active_master()
        assert len(master.sysstat.disk_to_host) == 32

    def test_sysconf_mappings(self, dep):
        assert dep.sysconf.unit_of_host("unit1.host2") == "unit1"
        assert dep.sysconf.unit_of_disk("unit0.disk5") == "unit0"


def test_instrumented_like_one_unit():
    """Race detection and metrics reach every unit, and the single-unit
    accessors refuse to pick a unit."""
    dep = build_deployment(
        config=DeploymentConfig(units=2, detect_races=True), metrics=MetricsRegistry()
    )
    dep.settle(15.0)
    assert dep.sim._race_detector is not None
    assert dep.sim.metrics.dump()["counters"]["sim.events"] > 0
    assert dep.sim.races == []
    assert dep.host_of_disk("unit1.disk0").startswith("unit1.host")
    with pytest.raises(ValueError, match="2 deploy units"):
        dep.fabric


class TestAllocationAcrossUnits:
    def test_locality_hint_targets_specific_unit(self, dep):
        client = dep.new_client("mu-app", service="mu-svc")

        def scenario():
            a = yield from client.allocate(32 * MiB, locality_hint="unit1.host2")
            return a

        info = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert info["host_id"] == "unit1.host2"
        unit, disk, _ = parse_space_id(info["space_id"])
        assert unit == "unit1"
        assert disk.startswith("unit1.")

    def test_exclude_forces_other_unit(self, dep):
        client = dep.new_client("mu-app2", service="mu-svc2")
        unit0_disks = sorted(dep.units["unit0"].disks)

        def scenario():
            info = yield from client.allocate(32 * MiB, exclude_disks=unit0_disks)
            return info

        info = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert parse_space_id(info["space_id"])[0] == "unit1"

    def test_mount_and_io_across_units(self, dep):
        client = dep.new_client("mu-app3", service="mu-svc3")

        def scenario():
            a = yield from client.allocate(32 * MiB, locality_hint="unit0.host0")
            b = yield from client.allocate(32 * MiB, locality_hint="unit1.host0")
            sa = yield from client.mount(a["space_id"])
            sb = yield from client.mount(b["space_id"])
            ra = yield from sa.write(0, 4 * MiB)
            rb = yield from sb.write(0, 4 * MiB)
            return ra, rb

        ra, rb = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert ra["ok"] and rb["ok"]


class TestFailoverIsolation:
    def test_host_failure_contained_to_its_unit(self):
        dep = build_deployment(config=DeploymentConfig(units=2))
        dep.settle(15.0)
        master = dep.active_master()
        unit1_before = dict(
            (d, h)
            for d, h in master.sysstat.disk_to_host.items()
            if d.startswith("unit1.")
        )
        dep.crash_host("unit0.host1")
        dep.settle(15.0)
        master = dep.active_master()
        # unit0's orphans moved within unit0.
        for disk in dep.units["unit0"].disks:
            host = dep.units["unit0"].fabric.attached_host(disk)
            assert host is None or host.startswith("unit0.")
            assert host != "unit0.host1"
        # unit1 untouched.
        for disk, host in unit1_before.items():
            assert master.sysstat.disk_to_host[disk] == host

    def test_migrate_within_unit(self):
        dep = build_deployment(config=DeploymentConfig(units=2))
        dep.settle(15.0)
        from repro.net import RpcClient

        rpc = RpcClient(dep.sim, dep.network, "mu-op")
        master = dep.active_master().address

        def scenario():
            result = yield from rpc.call(
                master,
                "master.migrate_disk",
                "unit1.disk0",
                "unit1.host2",
                timeout=60.0,
            )
            return result

        dep.sim.run_until_event(dep.sim.process(scenario()))
        assert dep.units["unit1"].fabric.attached_host("unit1.disk0") == "unit1.host2"
