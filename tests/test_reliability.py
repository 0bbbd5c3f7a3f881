"""Tests for the reliability package: availability, rebuild, scrubbing."""

import pytest

from repro.cluster import build_deployment
from repro.disk import IoRequest, SimulatedDisk
from repro.reliability import (
    AvailabilityStudy,
    LatentErrorModel,
    MediaError,
    RebuildDrill,
    Scrubber,
    StudyParams,
    fabric_assisted_rebuild,
    network_rebuild,
)
from repro.sim import RngRegistry, Simulator
from repro.units import TB, GiB, MiB


class TestAvailabilityStudy:
    def test_ustore_beats_single_attached(self):
        study = AvailabilityStudy(StudyParams(horizon_years=50.0, trials=10), seed=3)
        results = study.run()
        single = results["single_attached"]
        ustore = results["ustore"]
        assert ustore.disk_downtime_hours_per_disk_year < (
            single.disk_downtime_hours_per_disk_year / 100
        )
        assert ustore.nines > single.nines + 1.5

    def test_single_attached_magnitude(self):
        """~3.5 failures/host-year x 2h repair ≈ 7 disk-downtime hours."""
        study = AvailabilityStudy(StudyParams(horizon_years=50.0, trials=10), seed=3)
        single = study.run()["single_attached"]
        assert 4.0 < single.disk_downtime_hours_per_disk_year < 11.0
        assert 2.5 < single.host_failures_per_year < 4.5

    def test_deterministic(self):
        a = AvailabilityStudy(StudyParams(horizon_years=10, trials=3), seed=9).run()
        b = AvailabilityStudy(StudyParams(horizon_years=10, trials=3), seed=9).run()
        assert a["ustore"].availability == b["ustore"].availability

    def test_zero_failover_delay_is_perfect(self):
        params = StudyParams(horizon_years=10, trials=3, failover_seconds=0.0)
        results = AvailabilityStudy(params, seed=4).run()
        # Only simultaneous whole-unit blackouts can hurt; with 4 hosts
        # and 2h repairs those are vanishingly rare at this horizon.
        assert results["ustore"].availability > 0.9999999


class TestRebuildEstimates:
    def test_network_bottlenecked_by_gbe(self):
        estimate = network_rebuild(3 * TB)
        assert estimate.rate_mb_s == pytest.approx(125.0, rel=0.01)
        assert estimate.network_bytes == 3 * TB

    def test_fabric_assisted_runs_at_disk_speed(self):
        estimate = fabric_assisted_rebuild(3 * TB)
        assert estimate.rate_mb_s > 170.0
        assert estimate.network_bytes == 0

    def test_fabric_wins_for_large_rebuilds(self):
        size = 3 * TB
        assert fabric_assisted_rebuild(size).seconds < network_rebuild(size).seconds

    def test_network_wins_for_tiny_rebuilds(self):
        """The 5 s switch overhead dominates tiny copies — a crossover
        the Master's policy would need to respect."""
        size = 64 * MiB
        assert network_rebuild(size).seconds < fabric_assisted_rebuild(size).seconds


class TestRebuildDrill:
    def test_drill_fabric_vs_network(self):
        dep = build_deployment()
        dep.settle(15.0)
        drill = RebuildDrill(dep)
        # Rebuild from disk4 (host2) onto disk0's host (host0); disk4's
        # alternate leaf hub routes to roothub0, so the migration is
        # conflict-free.
        source, destination = "disk4", "disk0"
        assert dep.fabric.attached_host(source) != dep.fabric.attached_host(destination)

        def run(assisted):
            return (
                yield from drill.run(source, destination, 2 * GiB, fabric_assisted=assisted)
            )

        network = dep.sim.run_until_event(dep.sim.process(run(False)))
        assert network["network_bytes"] == 2 * GiB
        # Now the fabric-assisted drill: it migrates disk2 to host0.
        assisted = dep.sim.run_until_event(dep.sim.process(run(True)))
        assert assisted["network_bytes"] == 0
        assert assisted["switch_seconds"] > 0
        assert dep.fabric.attached_host(source) == dep.fabric.attached_host(destination)
        assert assisted["seconds"] < network["seconds"]


def make_lse_stack(annual_rate=50.0, seed=7):
    sim = Simulator()
    disk = SimulatedDisk(sim, "d0")
    model = LatentErrorModel(
        sim=sim, disk=disk, rng=RngRegistry(seed), annual_lse_rate=annual_rate
    )
    return sim, disk, model


class TestLatentErrors:
    def test_errors_accumulate_over_time(self):
        sim, disk, model = make_lse_stack(annual_rate=100.0)
        sim.run(until=0.5 * 365 * 24 * 3600.0)
        assert len(model.errors) > 10

    def test_clean_read_passes(self):
        sim, disk, model = make_lse_stack(annual_rate=0.001)

        def scenario():
            yield from model.read(0, 4 * MiB)

        sim.run_until_event(sim.process(scenario()))

    def test_read_on_lse_raises(self):
        sim, disk, model = make_lse_stack()
        model.errors.add(0)  # first region

        def scenario():
            yield from model.read(0, 4 * MiB)

        with pytest.raises(MediaError):
            sim.run_until_event(sim.process(scenario()))
        assert model.detected

    def test_repair_clears(self):
        sim, disk, model = make_lse_stack()
        model.errors.add(3)
        model.repair(3)
        assert 3 not in model.errors
        assert model.repaired


class TestScrubber:
    def test_scrub_detects_and_repairs(self):
        sim, disk, model = make_lse_stack(annual_rate=0.0001)
        model.errors.add(1)
        scrubber = Scrubber(
            sim,
            model,
            scrub_interval=3600.0,
            scan_bytes=64 * MiB,
        )
        sim.run(until=2 * 3600.0 + 100.0)
        assert scrubber.passes_completed >= 1
        assert scrubber.errors_found >= 1
        assert 1 not in model.errors

    def test_shorter_interval_finds_errors_sooner(self):
        def detection_latency(interval):
            sim, disk, model = make_lse_stack(annual_rate=0.0001, seed=11)
            injected_at = 1000.0
            sim.defer(injected_at, lambda: model.errors.add(0))
            Scrubber(sim, model, scrub_interval=interval, scan_bytes=64 * MiB)
            sim.run(until=12 * 3600.0)
            assert model.detected, f"interval {interval}: never detected"
            return model.detected[0][0] - injected_at

        fast = detection_latency(1800.0)
        slow = detection_latency(7200.0)
        assert fast < slow
