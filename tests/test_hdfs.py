"""Tests for the mini-HDFS overlay on UStore (§VII-B)."""

import pytest

from repro.cluster import build_deployment
from repro.fabric import SwitchConflict, plan_switches
from repro.hdfs import build_hdfs_on_ustore
from repro.net import RpcClient
from repro.units import MiB


@pytest.fixture(scope="module")
def stack():
    dep = build_deployment()
    dep.settle(15.0)
    hdfs = dep.sim.run_until_event(dep.sim.process(build_hdfs_on_ustore(dep)))
    dep.settle(3.0)
    return dep, hdfs


def fresh_stack():
    dep = build_deployment()
    dep.settle(15.0)
    hdfs = dep.sim.run_until_event(dep.sim.process(build_hdfs_on_ustore(dep)))
    dep.settle(3.0)
    return dep, hdfs


class TestClusterBuild:
    def test_three_live_datanodes(self, stack):
        dep, hdfs = stack
        assert hdfs.namenode.live_datanodes() == ["dn0", "dn1", "dn2"]

    def test_datanodes_on_distinct_disks(self, stack):
        dep, hdfs = stack
        disks = {hdfs.backing_disk_of(d) for d in hdfs.datanodes}
        assert len(disks) == 3

    def test_spaces_are_host_local(self, stack):
        """Locality hints put each datanode's disk on its own host."""
        dep, hdfs = stack
        hosts = dep.fabric.hosts()
        for index, dn_id in enumerate(sorted(hdfs.datanodes)):
            disk = hdfs.backing_disk_of(dn_id)
            assert dep.fabric.attached_host(disk) == hosts[index + 1]


class TestReadWrite:
    def test_write_and_read_round_trip(self):
        dep, hdfs = fresh_stack()
        client = hdfs.new_client("app")

        def scenario():
            report = yield from client.write_file("/f", 96 * MiB)
            result = yield from client.read_file("/f")
            return report, result

        report, result = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert report.bytes_written == 96 * MiB
        assert result["bytes_read"] == 96 * MiB
        assert report.errors == 0

    def test_blocks_are_replicated_three_ways(self):
        dep, hdfs = fresh_stack()
        client = hdfs.new_client("app")

        def scenario():
            yield from client.write_file("/f", 96 * MiB)

        dep.sim.run_until_event(dep.sim.process(scenario()))
        for block in hdfs.namenode.blocks.values():
            assert len(block.replicas) == 3

    def test_multi_block_file(self):
        dep, hdfs = fresh_stack()
        client = hdfs.new_client("app")

        def scenario():
            report = yield from client.write_file("/f", 130 * MiB)  # 3 blocks
            return report

        report = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert len(hdfs.namenode.files["/f"]) == 3

    def test_duplicate_create_rejected(self):
        dep, hdfs = fresh_stack()
        client = hdfs.new_client("app")
        from repro.net import RemoteError

        def scenario():
            yield from client.write_file("/f", 4 * MiB)
            yield from client.write_file("/f", 4 * MiB)

        with pytest.raises(RemoteError, match="FileExistsError"):
            dep.sim.run_until_event(dep.sim.process(scenario()))


def conflict_free_target(dep, disk):
    current = dep.fabric.attached_host(disk)
    for host in dep.fabric.reachable_hosts(disk):
        if host == current:
            continue
        try:
            plan_switches(dep.fabric, [(disk, host)])
            return host
        except SwitchConflict:
            continue
    raise AssertionError(f"no conflict-free target for {disk}")


class TestDiskSwitchDuringWrite:
    """The §VII-B experiment: a switch is a transient hiccup, not a rebuild."""

    def test_write_survives_switch(self):
        dep, hdfs = fresh_stack()
        sim = dep.sim
        client = hdfs.new_client("app")
        disk = hdfs.backing_disk_of("dn0")
        target = conflict_free_target(dep, disk)
        master = dep.active_master().address
        rpc = RpcClient(sim, dep.network, "opctl")

        def migrate():
            yield sim.timeout(5.0)
            yield from rpc.call(master, "master.migrate_disk", disk, target, timeout=60.0)

        sim.process(migrate())

        def write():
            return (yield from client.write_file("/big", 192 * MiB))

        report = sim.run_until_event(sim.process(write()))
        assert report.bytes_written == 192 * MiB
        # The client saw at most a seconds-long hiccup: either an error
        # + retry or one slow packet, never a failed write.
        assert report.slowest_packet < 15.0
        assert report.slowest_packet > 0.5 or report.errors > 0
        # And the disk really moved.
        assert dep.fabric.attached_host(disk) == target

    def test_reads_not_interrupted_by_switch(self):
        """§VII-B: reads pick another replica; no interruption at all."""
        dep, hdfs = fresh_stack()
        sim = dep.sim
        client = hdfs.new_client("app")

        def write():
            return (yield from client.write_file("/big", 96 * MiB))

        sim.run_until_event(sim.process(write()))
        disk = hdfs.backing_disk_of("dn0")
        target = conflict_free_target(dep, disk)
        master = dep.active_master().address
        rpc = RpcClient(sim, dep.network, "opctl")

        def migrate():
            yield sim.timeout(0.5)
            yield from rpc.call(master, "master.migrate_disk", disk, target, timeout=60.0)

        sim.process(migrate())

        def read():
            return (yield from client.read_file("/big"))

        result = sim.run_until_event(sim.process(read()))
        assert result["bytes_read"] == 96 * MiB

    def test_datanode_crash_drops_from_pipeline(self):
        dep, hdfs = fresh_stack()
        sim = dep.sim
        client = hdfs.new_client("app")

        def crash_later():
            yield sim.timeout(3.0)
            hdfs.datanodes["dn0"].crash()

        sim.process(crash_later())

        def write():
            return (yield from client.write_file("/big", 128 * MiB))

        report = sim.run_until_event(sim.process(write()))
        assert report.bytes_written == 128 * MiB
        assert report.errors > 0
        assert report.pipelines_rebuilt >= 1
