"""Tests for the observability snapshot/dashboard."""

import pytest

from repro.cluster import DeploymentConfig, build_deployment
from repro.monitor import render_dashboard, snapshot
from repro.obs import MetricsRegistry
from repro.units import MiB


class TestSnapshot:
    def test_single_unit_snapshot(self):
        dep = build_deployment()
        dep.settle(15.0)
        snap = snapshot(dep)
        assert snap.active_master is not None
        assert snap.coord_leader is not None
        unit = snap.units["unit0"]
        assert sum(len(d) for d in unit.disks_per_host.values()) == 16
        assert unit.detached_disks == []
        assert unit.fabric_watts > 0

    def test_snapshot_reflects_allocation_and_failure(self):
        dep = build_deployment()
        dep.settle(15.0)
        client = dep.new_client("mon-app", service="mon")

        def scenario():
            info = yield from client.allocate(32 * MiB)
            return info

        info = dep.sim.run_until_event(dep.sim.process(scenario()))
        dep.fabric.node("leafhub0").fail()
        dep.bus.sync()
        dep.settle(3.0)
        snap = snapshot(dep)
        assert snap.spaces_allocated == 1
        unit = snap.units["unit0"]
        assert "leafhub0" in unit.failed_components
        assert "disk0" in unit.detached_disks and "disk1" in unit.detached_disks
        host = info["host_id"]
        assert unit.exposed_targets[host] == 1

    def test_multi_unit_snapshot(self):
        dep = build_deployment(config=DeploymentConfig(units=2))
        dep.settle(15.0)
        snap = snapshot(dep)
        assert set(snap.units) == {"unit0", "unit1"}

    def test_dashboard_renders(self):
        dep = build_deployment()
        dep.settle(15.0)
        text = render_dashboard(snapshot(dep))
        assert "UStore status" in text
        assert "host0" in text and "master" in text

    def test_dashboard_shows_failures(self):
        dep = build_deployment()
        dep.settle(15.0)
        dep.fabric.node("leafhub0").fail()
        dep.bus.sync()
        dep.settle(2.0)
        text = render_dashboard(snapshot(dep))
        assert "FAILED: leafhub0" in text
        assert "DETACHED" in text

    def test_dashboard_shows_metrics_only_when_armed(self):
        armed = build_deployment(metrics=MetricsRegistry())
        armed.settle(15.0)
        snap = snapshot(armed)
        events = armed.sim.events
        armed.settle(5.0)  # the snapshot keeps the text taken when made
        text = render_dashboard(snap)
        assert "metrics (sim-time registry):" in text
        assert any(
            line.split() == ["sim.events", f"{events:.0f}"]
            for line in text.splitlines()
        )
        bare = build_deployment()
        bare.settle(15.0)
        text = render_dashboard(snapshot(bare))
        assert "metrics" not in text and "sim.events" not in text
