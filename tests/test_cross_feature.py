"""Cross-feature integration: overlays under failures, misc API edges."""

import pytest

from repro.backup import BackupService, provision_archive, synthetic_dataset
from repro.cluster import DeploymentConfig, build_deployment
from repro.net import RemoteError, RpcClient
from repro.sim import RngRegistry
from repro.units import MiB


class TestBackupUnderFailover:
    def test_snapshot_survives_host_crash(self):
        """An archive snapshot keeps going across a UStore failover —
        the overlay only sees one slow chunk write."""
        dep = build_deployment()
        dep.settle(15.0)
        sim = dep.sim
        store = sim.run_until_event(
            sim.process(provision_archive(dep, num_spaces=2, space_bytes=2048 * MiB))
        )
        rng = RngRegistry(31)
        service = BackupService(dep, store, rng, change_fraction=0.1)
        service.load_dataset(synthetic_dataset(rng, num_files=30, mean_file_mib=8.0))

        # Crash the host serving the first arena mid-snapshot.
        victim_disk = store.spaces[0].space_id.split("/")[2]
        victim_host = dep.fabric.attached_host(victim_disk)

        def assassin():
            yield sim.timeout(3.0)
            dep.crash_host(victim_host)

        sim.process(assassin())

        def run():
            return (yield from service.run_rounds(1))

        rounds = sim.run_until_event(sim.process(run()))
        stats = rounds[0]
        assert stats.chunks_new == stats.chunks_total  # everything stored
        assert store.spaces[0].stats.remounts >= 1
        assert dep.fabric.attached_host(victim_disk) != victim_host

    def test_restore_after_failover(self):
        dep = build_deployment()
        dep.settle(15.0)
        sim = dep.sim
        store = sim.run_until_event(
            sim.process(provision_archive(dep, num_spaces=1, space_bytes=1024 * MiB))
        )
        rng = RngRegistry(33)
        service = BackupService(dep, store, rng)
        service.load_dataset(synthetic_dataset(rng, num_files=10, mean_file_mib=4.0))

        def backup():
            return (yield from service.run_rounds(1))

        sim.run_until_event(sim.process(backup()))
        disk = store.spaces[0].space_id.split("/")[2]
        dep.crash_host(dep.fabric.attached_host(disk))
        dep.settle(15.0)

        def restore():
            return (yield from store.restore("snap-000"))

        result = sim.run_until_event(sim.process(restore()))
        assert result["chunks_read"] > 0


class TestMultiUnitEdges:
    def test_cross_unit_migration_rejected(self):
        """A disk cannot be wired to a host of a different unit — the
        fabric has no such path, and the command fails cleanly."""
        dep = build_deployment(config=DeploymentConfig(units=2))
        dep.settle(15.0)
        rpc = RpcClient(dep.sim, dep.network, "edge-op")
        master = dep.active_master().address

        def scenario():
            yield from rpc.call(
                master,
                "master.migrate_disk",
                "unit0.disk0",
                "unit1.host0",
                timeout=60.0,
            )

        with pytest.raises(RemoteError):
            dep.sim.run_until_event(dep.sim.process(scenario()))
        # The disk stayed put.
        assert dep.units["unit0"].fabric.attached_host("unit0.disk0") == "unit0.host0"
