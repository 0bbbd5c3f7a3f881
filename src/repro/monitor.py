"""Deployment observability: status snapshots and a text dashboard.

Gives operators (and examples/tests) one call to see the whole system:
per-host attachment and exposure, disk power states, master/controller
health, fabric power, and client activity — the view a real UStore
operations console would render from SysConf + SysStat.

When the deployment was built with an armed :class:`repro.obs`
metrics registry, the snapshot additionally captures the registry's
:func:`repro.obs.export_text` rendering and the dashboard shows it as a
metrics section.  Deployments without a registry fall back to the pure
state-walk view.  Latency and energy attribution are printed by
``repro trace`` and ``repro energy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.deployment import Deployment, DeployUnit
from repro.fabric.power import FabricPowerModel
from repro.obs import export_text

__all__ = ["DeploymentSnapshot", "snapshot", "render_dashboard"]


@dataclass
class UnitSnapshot:
    unit_id: str
    disks_per_host: Dict[str, List[str]] = field(default_factory=dict)
    detached_disks: List[str] = field(default_factory=list)
    disk_states: Dict[str, str] = field(default_factory=dict)
    exposed_targets: Dict[str, int] = field(default_factory=dict)
    fabric_watts: float = 0.0
    switch_turns_total: int = 0
    failed_components: List[str] = field(default_factory=list)


@dataclass
class DeploymentSnapshot:
    time: float
    active_master: Optional[str]
    coord_leader: Optional[str]
    units: Dict[str, UnitSnapshot] = field(default_factory=dict)
    spaces_allocated: int = 0
    failovers_completed: int = 0
    #: ``export_text`` of the deployment's registry at snapshot time,
    #: or ``None`` when metrics were not armed (NULL_REGISTRY).
    metrics: Optional[str] = None


def _unit_snapshot(unit: DeployUnit) -> UnitSnapshot:
    snap = UnitSnapshot(unit_id=unit.unit_id)
    fabric = unit.fabric
    attachment = fabric.attachment_map()
    for host in fabric.hosts():
        snap.disks_per_host[host] = sorted(
            d for d, h in attachment.items() if h == host
        )
    snap.detached_disks = sorted(d for d, h in attachment.items() if h is None)
    snap.disk_states = {
        disk_id: disk.power_state.value for disk_id, disk in sorted(unit.disks.items())
    }
    for host, endpoint in unit.endpoints.items():
        snap.exposed_targets[host] = len(endpoint.targets.exposed_targets())
    snap.fabric_watts = FabricPowerModel(fabric).total_power()
    snap.switch_turns_total = sum(s.turn_count for s in fabric.switches)
    snap.failed_components = sorted(
        node_id for node_id, node in fabric.nodes.items() if node.failed
    )
    return snap


def snapshot(deployment: Deployment) -> DeploymentSnapshot:
    """Collect the current state of a deployment, one entry per unit."""
    from repro.coord import Role

    master = deployment.active_master()
    leader = None
    for replica in deployment.coord_replicas:
        if replica.role is Role.LEADER and not replica.crashed:
            leader = replica.address
    snap = DeploymentSnapshot(
        time=deployment.sim.now,
        active_master=master.address if master else None,
        coord_leader=leader,
        spaces_allocated=len(master.records) if master else 0,
        failovers_completed=master.failovers_completed if master else 0,
        metrics=(
            export_text(deployment.sim.metrics)
            if deployment.sim.metrics.enabled
            else None
        ),
    )
    for unit_id, unit in deployment.units.items():
        snap.units[unit_id] = _unit_snapshot(unit)
    return snap


def render_dashboard(snap: DeploymentSnapshot) -> str:
    """Operator-console style text rendering of a snapshot."""
    lines = [
        f"UStore status @ t={snap.time:.1f}s",
        f"  master: {snap.active_master or 'NONE'}   "
        f"coordination leader: {snap.coord_leader or 'NONE'}",
        f"  spaces allocated: {snap.spaces_allocated}   "
        f"failovers completed: {snap.failovers_completed}",
    ]
    for unit in snap.units.values():
        lines.append(f"  [{unit.unit_id}]  fabric {unit.fabric_watts:.1f} W, "
                     f"{unit.switch_turns_total} switch turns")
        for host, disks in unit.disks_per_host.items():
            exposed = unit.exposed_targets.get(host, 0)
            spun_down = sum(
                1 for d in disks if unit.disk_states.get(d) == "spun_down"
            )
            lines.append(
                f"    {host:<16} {len(disks):>2} disks "
                f"({spun_down} spun down), {exposed} targets: "
                f"{', '.join(disks) if disks else '-'}"
            )
        if unit.detached_disks:
            lines.append(f"    DETACHED: {', '.join(unit.detached_disks)}")
        if unit.failed_components:
            lines.append(f"    FAILED: {', '.join(unit.failed_components)}")
    if snap.metrics is not None:
        lines.append("  metrics (sim-time registry):")
        lines.extend(
            f"    {line}" if line else "" for line in snap.metrics.splitlines()
        )
    return "\n".join(lines)
