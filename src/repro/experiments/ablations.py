"""Ablations of UStore's design choices (DESIGN.md §4).

These are not paper tables; they quantify the trade-offs the paper
argues qualitatively:

* switch placement — Figure 2 left (leaf-switched) vs right
  (higher-level switching): hardware count vs hub-failure blast radius;
* fabric width — 2-way vs 4-way dual trees: cost of extra tolerance;
* allocation policy — the paper's affinity+locality rules vs random:
  how often services end up sharing spindles (which blocks §IV-F
  power control);
* spin-down policy — fixed vs adaptive timeout under a bursty cold
  workload: spin cycles vs energy;
* heartbeat timeout — failover latency vs detection safety margin.
"""

from __future__ import annotations

import json
from typing import Dict, Generator, List

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.cluster.master import MasterConfig
from repro.experiments.base import Experiment, ExperimentResult
from repro.disk.device import IoRequest, SimulatedDisk
from repro.disk.specs import TOSHIBA_POWER_USB
from repro.fabric.builders import dual_tree_fabric, prototype_fabric, ring_fabric
from repro.power.policy import AdaptiveTimeoutPolicy, FixedTimeoutPolicy, run_policy
from repro.sim import Event, RngRegistry, Simulator
from repro.units import MiB
from repro.workload.traces import cold_read_trace

__all__ = [
    "EXPERIMENT",
    "allocation_policy_ablation",
    "fabric_width_ablation",
    "heartbeat_timeout_ablation",
    "spin_down_policy_ablation",
    "switch_placement_ablation",
]


def _census(fabric) -> Dict[str, int]:
    return {
        "hubs": len(fabric.hubs),
        "switches": len(fabric.switches),
        "bridges": len(fabric.bridges),
    }


def _worst_hub_blast_radius(fabric) -> int:
    """Disks left with no usable path if the worst single hub dies."""
    worst = 0
    for hub in fabric.hubs:
        hub.fail()
        lost = sum(
            1
            for disk in fabric.disks
            if not fabric.reachable_hosts(disk.node_id)
        )
        hub.repair()
        worst = max(worst, lost)
    return worst


def switch_placement_ablation() -> Dict:
    """Figure 2 left vs right at the prototype's scale (16 disks)."""
    leaf_switched = dual_tree_fabric(num_disks=16, num_hosts=4, fan_in=4)
    upper_switched = prototype_fabric()
    return {
        "leaf_switched": {
            **_census(leaf_switched),
            "worst_hub_blast_radius": _worst_hub_blast_radius(leaf_switched),
        },
        "upper_switched": {
            **_census(upper_switched),
            "worst_hub_blast_radius": _worst_hub_blast_radius(upper_switched),
        },
    }


def fabric_width_ablation() -> Dict:
    """2-way vs 4-way dual trees: tolerance costs hardware."""
    results = {}
    for hosts in (2, 4):
        fabric = dual_tree_fabric(num_disks=16, num_hosts=hosts, fan_in=4)
        results[f"{hosts}-way"] = {
            **_census(fabric),
            "hosts_reachable_per_disk": len(
                fabric.reachable_hosts("disk0", respect_failures=False)
            ),
        }
    return results


def allocation_policy_ablation(num_services: int = 4, spaces_per_service: int = 6) -> Dict:
    """Paper placement rules vs random placement."""

    def shared_disks(policy: str) -> Dict:
        deployment = build_deployment(config=DeploymentConfig(seed=11))
        deployment.settle(15.0)
        sim = deployment.sim
        rng = RngRegistry(13).stream("alloc-ablation")
        master = deployment.active_master()
        owners: Dict[str, set] = {}

        def scenario() -> Generator[Event, None, None]:
            for service_index in range(num_services):
                service = f"svc{service_index}"
                client = deployment.new_client(f"{policy}-{service}", service=service)
                for _ in range(spaces_per_service):
                    if policy == "random":
                        all_disks = sorted(deployment.disks)
                        keep = rng.choice(all_disks)
                        exclude = [d for d in all_disks if d != keep]
                        info = yield from client.allocate(
                            16 * MiB, exclude_disks=exclude
                        )
                    else:
                        info = yield from client.allocate(16 * MiB)
                    disk = info["space_id"].split("/")[2]
                    owners.setdefault(disk, set()).add(service)

        sim.run_until_event(sim.process(scenario()))
        shared = sum(1 for services in owners.values() if len(services) > 1)
        power_controllable = sum(
            1 for services in owners.values() if len(services) == 1
        )
        return {
            "disks_used": len(owners),
            "disks_shared_by_services": shared,
            "disks_power_controllable": power_controllable,
        }

    return {"paper_rules": shared_disks("paper"), "random": shared_disks("random")}


def spin_down_policy_ablation(hours: float = 24.0) -> Dict:
    """Fixed vs adaptive idle timeout under a bursty cold workload."""

    def simulate(policy) -> Dict:
        sim = Simulator()
        disk = SimulatedDisk(sim, "cold0")
        run_policy(sim, {"cold0": disk}, policy, check_interval=10.0)
        # A bursty cold trace: mean 10-minute gaps, so a 5-minute fixed
        # timeout thrashes while the adaptive one backs off.
        events = cold_read_trace(
            RngRegistry(23), duration=hours * 3600.0, mean_interarrival=600.0
        )

        def replay() -> Generator[Event, None, None]:
            for access in events:
                delay = access.time - sim.now
                if delay > 0:
                    yield sim.timeout(delay)
                yield disk.submit(
                    IoRequest(
                        offset=access.offset,
                        size=access.size,
                        is_read=access.is_read,
                        sequential_hint=False,
                    )
                )

        done = sim.process(replay())
        sim.run_until_event(done)
        sim.run(until=hours * 3600.0)
        return {
            "spin_ups": disk.states.spin_up_count,
            "energy_wh": disk.energy_joules(TOSHIBA_POWER_USB) / 3600.0,
            "requests": len(events),
        }

    fixed = simulate(FixedTimeoutPolicy(idle_timeout=300.0))
    adaptive = simulate(
        AdaptiveTimeoutPolicy(idle_timeout=300.0, thrash_limit=3, thrash_window=3600.0)
    )
    always_on_wh = TOSHIBA_POWER_USB.idle * hours
    return {
        "fixed": fixed,
        "adaptive": adaptive,
        "always_on_energy_wh": always_on_wh,
    }


def heartbeat_timeout_ablation(timeouts=(1.0, 2.0, 4.0, 8.0)) -> Dict:
    """Failover latency as a function of the heartbeat timeout (§IV-E)."""
    results = {}
    for timeout in timeouts:
        config = DeploymentConfig(
            seed=29, master=MasterConfig(heartbeat_timeout=timeout)
        )
        deployment = build_deployment(config=config)
        deployment.settle(15.0)
        sim = deployment.sim
        master = deployment.active_master()
        victim = "host2"
        victim_disks = master.sysstat.disks_on_host(victim)
        crash_time = sim.now
        deployment.crash_host(victim)
        while master.sysstat.disks_on_host(victim):
            if sim.now - crash_time > 180.0:
                break
            sim.run(until=sim.now + 0.1)
        mapping = deployment.fabric.attachment_map()
        moved = all(mapping[d] not in (None, victim) for d in victim_disks)
        results[timeout] = {
            "recovery_seconds": sim.now - crash_time,
            "all_disks_moved": moved,
        }
    return results


def _build_result() -> ExperimentResult:
    raw = {
        "switch_placement": switch_placement_ablation(),
        "fabric_width": fabric_width_ablation(),
        "allocation_policy": allocation_policy_ablation(),
        "spin_down_policy": spin_down_policy_ablation(),
        "heartbeat_timeout": heartbeat_timeout_ablation(),
    }
    return ExperimentResult(
        metrics={
            "leaf_switched_blast_radius": raw["switch_placement"]["leaf_switched"][
                "worst_hub_blast_radius"
            ],
            "upper_switched_blast_radius": raw["switch_placement"][
                "upper_switched"
            ]["worst_hub_blast_radius"],
        },
        raw=raw,
        text=json.dumps(raw, indent=2, default=str),
    )


EXPERIMENT = Experiment(
    name="ablations",
    paper_ref="DESIGN.md §4",
    description="Design-choice ablation studies",
    builder=_build_result,
)
