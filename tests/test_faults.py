"""Tests for fault injection and the failure-domain behaviours of §IV-E."""

import pytest

from repro.cluster import build_deployment
from repro.faults import FaultInjector, MttfSchedule, MONTH, YEAR
from repro.power import AdaptiveTimeoutPolicy, FixedTimeoutPolicy
from repro.sim import RngRegistry


def fresh():
    dep = build_deployment()
    dep.settle(15.0)
    return dep


class TestFaultInjector:
    def test_disk_failure_detaches_and_is_reported(self):
        dep = fresh()
        injector = FaultInjector(dep)
        host = dep.fabric.attached_host("disk0")
        injector.fail_disk("disk0")
        dep.settle(5.0)
        assert "disk0" not in dep.bus.os_view(host)
        assert injector.history[-1].kind == "disk_fail"

    def test_disk_repair_reattaches(self):
        dep = fresh()
        injector = FaultInjector(dep)
        injector.fail_disk("disk0")
        dep.settle(5.0)
        injector.repair_disk("disk0")
        dep.settle(10.0)
        assert any("disk0" in dep.bus.os_view(f"host{i}") for i in range(4))

    def test_hub_failure_takes_out_subtree(self):
        """§IV-E: a failed hub is one failure unit with its subtree view."""
        dep = fresh()
        injector = FaultInjector(dep)
        host = dep.fabric.attached_host("disk0")
        injector.fail_component("leafhub0")
        dep.settle(5.0)
        view = dep.bus.os_view(host)
        assert "disk0" not in view and "disk1" not in view

    def test_hub_failure_leaves_alternate_paths(self):
        """The Master can switch the paths away from a dead hub."""
        dep = fresh()
        injector = FaultInjector(dep)
        injector.fail_component("leafhub0")
        # disk0 still reaches other hosts through its alternate leaf hub.
        reachable = dep.fabric.reachable_hosts("disk0")
        assert reachable  # not empty
        assert "host2" in reachable or "host3" in reachable

    def test_controller_failover_keeps_commands_working(self):
        dep = fresh()
        injector = FaultInjector(dep)
        injector.fail_primary_controller()
        from repro.net import RpcClient

        rpc = RpcClient(dep.sim, dep.network, "tester")

        def scenario():
            result = yield from rpc.call(
                "unit0.controller1",
                "controller.execute",
                dep.active_master().token,
                [("disk0", "host2")],
                timeout=40.0,
            )
            return result

        result = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert dep.fabric.attached_host("disk0") == "host2"

    def test_history_records_times(self):
        dep = fresh()
        injector = FaultInjector(dep)
        t = dep.sim.now
        injector.crash_host("host3")
        assert injector.history[0].time == t
        assert injector.history[0].target == "host3"


class TestMttfSchedule:
    def test_exponential_mean(self):
        schedule = MttfSchedule(RngRegistry(3))
        samples = [schedule.next_host_failure() for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(3.4 * MONTH, rel=0.1)

    def test_disk_failures_much_rarer_than_hosts(self):
        schedule = MttfSchedule(RngRegistry(3))
        horizon = 1 * YEAR
        host_failures = schedule.failures_within(horizon, 3.4 * MONTH)
        disk_failures = schedule.failures_within(horizon, 20 * YEAR)
        assert len(host_failures) > len(disk_failures)

    def test_failures_within_sorted_and_bounded(self):
        schedule = MttfSchedule(RngRegistry(3))
        times = schedule.failures_within(YEAR, MONTH)
        assert times == sorted(times)
        assert all(0 < t < YEAR for t in times)

    def test_deterministic_across_runs(self):
        a = MttfSchedule(RngRegistry(5)).next_host_failure()
        b = MttfSchedule(RngRegistry(5)).next_host_failure()
        assert a == b


class TestSpinDownPolicies:
    def test_fixed_policy_constant(self):
        policy = FixedTimeoutPolicy(idle_timeout=100.0)
        policy.on_spin_up("d", 0.0)
        policy.on_spin_up("d", 1.0)
        assert policy.timeout_for("d") == 100.0

    def test_adaptive_policy_backs_off(self):
        policy = AdaptiveTimeoutPolicy(idle_timeout=100.0, thrash_limit=3, thrash_window=1000.0)
        for i in range(4):
            policy.on_spin_up("d", float(i))
        assert policy.timeout_for("d") == 200.0

    def test_adaptive_policy_caps(self):
        policy = AdaptiveTimeoutPolicy(
            idle_timeout=100.0, thrash_limit=1, thrash_window=1e9, max_timeout=400.0
        )
        now = 0.0
        for _ in range(10):
            policy.on_spin_up("d", now)
            now += 1.0
        assert policy.timeout_for("d") == 400.0

    def test_adaptive_ignores_old_wakeups(self):
        policy = AdaptiveTimeoutPolicy(idle_timeout=100.0, thrash_limit=3, thrash_window=10.0)
        for t in (0.0, 1.0, 2.0):
            policy.on_spin_up("d", t)
        policy.on_spin_up("d", 1000.0)  # others aged out of the window
        assert policy.timeout_for("d") == 100.0

    def test_run_policy_spins_down_idle_disks(self):
        from repro.disk import DiskPowerState, SimulatedDisk
        from repro.power import run_policy
        from repro.sim import Simulator

        sim = Simulator()
        disks = {"d0": SimulatedDisk(sim, "d0")}
        run_policy(sim, disks, FixedTimeoutPolicy(idle_timeout=30.0), check_interval=5.0)
        sim.run(until=60.0)
        assert disks["d0"].power_state is DiskPowerState.SPUN_DOWN
