"""Experiment: single-host failure recovery (§I: "recover from an
arbitrary single host failure in 5.8 seconds").

A host is killed without warning.  Recovery time is measured from the
crash to the moment every disk the host was serving is attached to a
healthy host AND every affected storage space is exposed there again.
A mounted client confirms end-to-end service resumption.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import relative_error
from repro.obs import MetricsRegistry
from repro.sim import Event
from repro.units import KiB, MiB

__all__ = ["EXPERIMENT", "run_single"]

PAPER_RECOVERY_SECONDS = 5.8


def run_single(
    victim: str, seed: int, metrics: Optional[MetricsRegistry] = None
) -> Dict[str, float]:
    deployment = build_deployment(
        config=DeploymentConfig(seed=seed), metrics=metrics
    )
    deployment.settle(15.0)
    sim = deployment.sim
    master = deployment.active_master()

    # Put one client space on each disk the victim currently serves so
    # "recovered" means re-exposed and remountable, not just re-attached.
    victim_disks = master.sysstat.disks_on_host(victim)
    client = deployment.new_client("failover-client", service="failover")
    spaces = []

    def setup() -> Generator[Event, None, None]:
        for disk in victim_disks:
            exclude = [d.node_id for d in deployment.fabric.disks if d.node_id != disk]
            info = yield from client.allocate(64 * MiB, exclude_disks=exclude)
            space = yield from client.mount(info["space_id"])
            yield from space.write(0, 4 * KiB)
            spaces.append(space)

    sim.run_until_event(sim.process(setup()))
    deployment.settle(2.0)

    crash_time = sim.now
    deployment.crash_host(victim)

    # Wait until the master reports every victim disk on a healthy host.
    def recovered() -> bool:
        live = master.sysstat.disks_on_host(victim)
        if live:
            return False
        mapping = deployment.fabric.attachment_map()
        return all(
            mapping[d] is not None and mapping[d] != victim for d in victim_disks
        )

    while not recovered():
        if sim.now - crash_time > 120.0:
            raise RuntimeError("failover did not complete within 120 s")
        sim.run(until=sim.now + 0.1)
    reattach_seconds = sim.now - crash_time

    # End-to-end: the first I/O on every affected space succeeds
    # (concurrently, as independent clients would).
    def touch(space) -> Generator[Event, None, None]:
        yield from space.read(0, 4 * KiB)

    sim.run_until_event(sim.all_of([sim.process(touch(s)) for s in spaces]))
    service_seconds = sim.now - crash_time
    return {
        "victim": victim,
        "reattach_seconds": reattach_seconds,
        "service_resumed_seconds": service_seconds,
        "disks_moved": len(victim_disks),
    }


def _build_result(repetitions: int) -> ExperimentResult:
    registry = MetricsRegistry()
    trials: List[Dict[str, float]] = []
    hosts = ["host0", "host1", "host2", "host3"]
    for index in range(repetitions):
        victim = hosts[index % len(hosts)]
        trials.append(run_single(victim, seed=37 + index, metrics=registry))
    mean_reattach = sum(t["reattach_seconds"] for t in trials) / len(trials)
    mean_service = sum(t["service_resumed_seconds"] for t in trials) / len(trials)
    raw = {
        "trials": trials,
        "mean_reattach_seconds": mean_reattach,
        "mean_service_resumed_seconds": mean_service,
        "paper_recovery_seconds": PAPER_RECOVERY_SECONDS,
        "anchors": {
            # Same order of magnitude as the prototype's 5.8 s; the
            # disruption must look like a hiccup, not a rebuild.
            "recovery_within_2x_of_paper": mean_reattach
            <= 2.0 * PAPER_RECOVERY_SECONDS,
            "recovery_is_seconds_not_minutes": mean_service < 60.0,
        },
    }
    return ExperimentResult(
        metrics={
            "mean_reattach_seconds": mean_reattach,
            "mean_service_resumed_seconds": mean_service,
        },
        paper_expected={"recovery_seconds": PAPER_RECOVERY_SECONDS},
        relative_errors={
            "mean_reattach": relative_error(mean_reattach, PAPER_RECOVERY_SECONDS)
        },
        anchors=dict(raw["anchors"]),
        obs=registry.dump(),
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = ["Single-host failover (paper: 5.8 s)", ""]
    for trial in result["trials"]:
        lines.append(
            f"  {trial['victim']}: disks reattached in "
            f"{trial['reattach_seconds']:.1f}s, service resumed in "
            f"{trial['service_resumed_seconds']:.1f}s "
            f"({trial['disks_moved']} disks)"
        )
    lines.append("")
    lines.append(
        f"  mean: reattach {result['mean_reattach_seconds']:.1f}s, "
        f"service {result['mean_service_resumed_seconds']:.1f}s "
        f"(paper {result['paper_recovery_seconds']}s)"
    )
    for name, holds in result["anchors"].items():
        lines.append(f"  anchor {name}: {'OK' if holds else 'FAILED'}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="host_failover",
    paper_ref="§I / §IV-E",
    description="Single-host crash recovery (paper: 5.8 s)",
    builder=_build_result,
    params={"repetitions": 4},
)
