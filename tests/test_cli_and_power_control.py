"""Tests for the CLI and the §IV-F service power-control path."""

import pytest

from repro.cli import main as cli_main
from repro.cluster import build_deployment
from repro.disk import DiskPowerState
from repro.net import RemoteError
from repro.units import MiB


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure6" in out

    def test_run_single(self, capsys):
        assert cli_main(["run", "table4"]) == 0
        out = capsys.readouterr().out
        assert "hub power" in out

    def test_run_unknown(self, capsys):
        assert cli_main(["run", "nope"]) == 2

    def test_cost(self, capsys):
        assert cli_main(["cost"]) == 0
        assert "UStore" in capsys.readouterr().out

    def test_validate_good(self, capsys):
        assert cli_main(["validate", "--hosts", "4"]) == 0
        assert "valid: True" in capsys.readouterr().out


class TestServicePowerControl:
    """§IV-F: services may spin their *own* disks up and down."""

    def setup_deployment(self):
        dep = build_deployment()
        dep.settle(15.0)
        return dep

    def test_owner_can_spin_down_and_up(self):
        dep = self.setup_deployment()
        client = dep.new_client("svc-a-app", service="svc-a")

        def scenario():
            info = yield from client.allocate(64 * MiB)
            yield from client.set_disk_power(info["space_id"], "spin_down")
            return info

        info = dep.sim.run_until_event(dep.sim.process(scenario()))
        disk_id = info["space_id"].split("/")[2]
        assert dep.disks[disk_id].power_state is DiskPowerState.SPUN_DOWN

        def wake():
            yield from client.set_disk_power(info["space_id"], "spin_up")

        dep.sim.run_until_event(dep.sim.process(wake()))
        assert dep.disks[disk_id].states.is_spinning

    def test_non_owner_rejected(self):
        dep = self.setup_deployment()
        owner = dep.new_client("owner-app", service="owner")
        intruder = dep.new_client("intruder-app", service="intruder")

        def scenario():
            info = yield from owner.allocate(64 * MiB)
            yield from intruder.set_disk_power(info["space_id"], "spin_down")

        with pytest.raises(RemoteError, match="PermissionError"):
            dep.sim.run_until_event(dep.sim.process(scenario()))

    def test_shared_disk_rejected(self):
        """Power control needs exclusive disk ownership (§IV-A rule 1
        exists exactly to make this possible)."""
        dep = self.setup_deployment()
        a = dep.new_client("a-app", service="svc-shared")
        b = dep.new_client("b-app", service="svc-other")

        def scenario():
            info_a = yield from a.allocate(64 * MiB)
            disk = info_a["space_id"].split("/")[2]
            # Force the second service onto the same disk.
            exclude = [d for d in dep.disks if d != disk]
            yield from b.allocate(64 * MiB, exclude_disks=exclude)
            yield from a.set_disk_power(info_a["space_id"], "spin_down")

        with pytest.raises(RemoteError, match="shared by"):
            dep.sim.run_until_event(dep.sim.process(scenario()))

    def test_io_to_spun_down_disk_wakes_it(self):
        dep = self.setup_deployment()
        client = dep.new_client("svc-app", service="svc")

        def scenario():
            info = yield from client.allocate(64 * MiB)
            space = yield from client.mount(info["space_id"])
            yield from client.set_disk_power(info["space_id"], "spin_down")
            start = dep.sim.now
            yield from space.read(0, 4 * MiB)
            return dep.sim.now - start

        elapsed = dep.sim.run_until_event(dep.sim.process(scenario()))
        # The read paid the ~8s spin-up (cold-data latency, §I).
        assert elapsed >= 8.0

    def test_cold_read_is_one_attempt_without_remount(self):
        """Spin-up is a delay, not a failure: the target's NOT READY
        notice stretches the 3 s I/O timeout past the 8 s spin-up, so
        the read reaches the disk once and never remounts."""
        dep = self.setup_deployment()
        client = dep.new_client("svc-app", service="svc")

        def setup():
            info = yield from client.allocate(64 * MiB)
            space = yield from client.mount(info["space_id"])
            return info, space

        info, space = dep.sim.run_until_event(dep.sim.process(setup()))
        disk = dep.disks[info["space_id"].split("/")[2]]
        disk.spin_down()
        ios = disk.completed_ios

        def read():
            start = dep.sim.now
            yield from space.read(0, 1 * MiB)
            return dep.sim.now - start

        elapsed = dep.sim.run_until_event(dep.sim.process(read()))
        assert client.initiator.io_timeout == 3.0
        assert 8.0 < elapsed < 8.1
        assert space.stats.remounts == 0
        assert space.stats.errors_seen == 0
        assert disk.completed_ios - ios == 1

    def test_spin_up_request_during_an_io_spin_up_waits_for_it(self):
        """Regression: a service's spin_up sent while an I/O is waking
        the disk failed with DiskBusyError; it now returns True once the
        disk is ready."""
        dep = self.setup_deployment()
        client = dep.new_client("svc-app", service="svc")

        def setup():
            info = yield from client.allocate(64 * MiB)
            space = yield from client.mount(info["space_id"])
            return info, space

        info, space = dep.sim.run_until_event(dep.sim.process(setup()))
        disk = dep.disks[info["space_id"].split("/")[2]]
        disk.spin_down()
        start = dep.sim.now
        outcome = []

        def power():
            result = yield from client.set_disk_power(info["space_id"], "spin_up")
            outcome.append((result, dep.sim.now - start))

        dep.sim.process(space.read(0, 1 * MiB))
        dep.sim.defer(1.0, lambda: dep.sim.process(power()))
        dep.sim.run(until=start + 30.0)
        ((result, elapsed),) = outcome
        assert result is True
        assert elapsed == pytest.approx(disk.spec.spin_up_time, abs=0.01)
        assert disk.states.spin_up_count == 1


class TestEndpointPowerPolicy:
    def test_idle_disks_spin_down_automatically(self):
        from repro.power.policy import FixedTimeoutPolicy, run_policy

        dep = build_deployment()
        run_policy(dep.sim, dep.disks, FixedTimeoutPolicy(idle_timeout=20.0))
        dep.settle(60.0)
        spun_down = sum(
            1
            for disk in dep.disks.values()
            if disk.power_state is DiskPowerState.SPUN_DOWN
        )
        assert spun_down == len(dep.disks)
