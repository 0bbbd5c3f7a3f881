"""Tests for the Iometer drivers and trace generators."""

import pytest

from repro.disk import ConnectionType, DiskModel, SimulatedDisk
from repro.fabric import prototype_fabric
from repro.sim import RngRegistry, Simulator
from repro.units import KiB, MiB
from repro.workload import (
    AccessPattern,
    IometerRun,
    WorkloadSpec,
    archival_batch_trace,
    cold_read_trace,
    model_throughput,
)


class TestModelThroughput:
    def test_matches_bandwidth_allocation(self):
        fabric = prototype_fabric()
        disks = [d for d, h in fabric.attachment_map().items() if h == "host0"]
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        result = model_throughput(fabric, disks, spec)
        assert result["total_bytes_per_second"] == pytest.approx(300e6, rel=1e-6)

    def test_mixed_spec_splits_directions(self):
        fabric = prototype_fabric()
        disks = [d for d, h in fabric.attachment_map().items() if h == "host0"]
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 0.5)
        result = model_throughput(fabric, disks, spec)
        # Each direction carries half of each disk's mixed demand; with 4
        # disks the total stays below the one-direction cap but uses both.
        per_disk = DiskModel().demand_bytes_per_second(spec)
        assert result["total_bytes_per_second"] == pytest.approx(
            4 * per_disk, rel=1e-6
        )

    def test_duplex_split(self):
        fabric = prototype_fabric()
        disks = [d for d, h in fabric.attachment_map().items() if h == "host0"]
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        result = model_throughput(fabric, disks, spec, duplex_split=True)
        assert result["total_bytes_per_second"] == pytest.approx(540e6, rel=1e-6)


class TestIometerRun:
    def make_run(self, spec, count=2):
        sim = Simulator()
        fabric = prototype_fabric()
        host0 = [d for d, h in fabric.attachment_map().items() if h == "host0"]
        disks = {
            d: SimulatedDisk(sim, d, connection=ConnectionType.HUB_AND_SWITCH)
            for d in host0[:count]
        }
        return sim, IometerRun(sim, fabric, disks, spec, rng=RngRegistry(3))

    def test_sequential_read_rate_close_to_model(self):
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        sim, run = self.make_run(spec, count=1)
        result = run.run(duration=30.0)
        expected = DiskModel().demand_bytes_per_second(spec)
        assert result["total_bytes_per_second"] == pytest.approx(expected, rel=0.05)

    def test_two_disks_fabric_limited(self):
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        sim, run = self.make_run(spec, count=2)
        result = run.run(duration=30.0)
        # Two disks want 2x186 MB/s but share a 300 MB/s port.
        assert result["total_bytes_per_second"] == pytest.approx(300e6, rel=0.06)

    def test_random_read_iops_close_to_model(self):
        spec = WorkloadSpec(4 * KiB, AccessPattern.RANDOM, 1.0)
        sim, run = self.make_run(spec, count=1)
        result = run.run(duration=30.0)
        model = DiskModel().throughput(spec).iops
        assert result["total_iops"] == pytest.approx(model, rel=0.10)

    def test_mixed_workload_alternates(self):
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 0.5)
        sim, run = self.make_run(spec, count=1)
        result = run.run(duration=20.0)
        disk = list(run.disks.values())[0]
        assert disk.bytes_read > 0 and disk.bytes_written > 0
        # Mixed sequential pays the turnaround penalty: the event-driven
        # run converges to the analytic 50%-mix rate (Table II column),
        # well below the pure-read rate.
        mixed = DiskModel().demand_bytes_per_second(spec)
        pure = DiskModel().demand_bytes_per_second(
            WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        )
        assert result["total_bytes_per_second"] == pytest.approx(mixed, rel=0.06)
        assert result["total_bytes_per_second"] < 0.75 * pure

    def test_stats_accumulate(self):
        spec = WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
        sim, run = self.make_run(spec, count=2)
        result = run.run(duration=10.0)
        assert set(result["per_disk"]) == set(run.disks)
        for stats in run.stats.values():
            assert stats.completed > 0
            assert stats.bytes_moved == stats.completed * 4 * MiB


class TestTraces:
    def test_cold_trace_poisson_mean(self):
        events = cold_read_trace(
            RngRegistry(9), duration=100 * 3600.0, mean_interarrival=600.0
        )
        assert 450 <= len(events) <= 750  # ~600 expected
        assert all(e.is_read for e in events)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_cold_trace_deterministic(self):
        a = cold_read_trace(RngRegistry(9), duration=3600.0)
        b = cold_read_trace(RngRegistry(9), duration=3600.0)
        assert a == b

    def test_archival_trace_batches(self):
        events = archival_batch_trace(
            duration=3 * 24 * 3600.0,
            batch_interval=24 * 3600.0,
            batch_bytes=16 * MiB,
            write_size=4 * MiB,
        )
        assert len(events) == 2 * 4  # two full batches fit before t=3d
        assert all(not e.is_read for e in events)
        # Sequential offsets within and across batches.
        offsets = [e.offset for e in events]
        assert offsets == sorted(offsets)

    def test_archival_trace_first_batch_at(self):
        events = archival_batch_trace(
            duration=100.0, batch_interval=1000.0, batch_bytes=4 * MiB, first_batch_at=10.0
        )
        assert events and events[0].time == 10.0
