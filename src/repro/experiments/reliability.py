"""Experiment: reliability extensions (§IV-E future work, §VIII).

Three studies the paper argues qualitatively, quantified:

* availability — single-attached JBOD vs UStore failover, 100 simulated
  host-years per trial;
* reconstruction — rebuild a dead disk's worth of data over the network
  vs via a fabric switch (the paper's stated future work), both as
  closed-form estimates and as a live drill on a deployment;
* scrubbing — latent-sector-error detection latency vs scrub interval.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.disk.device import SimulatedDisk
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import format_table
from repro.obs import MetricsRegistry
from repro.reliability import (
    AvailabilityStudy,
    LatentErrorModel,
    RebuildDrill,
    Scrubber,
    StudyParams,
    fabric_assisted_rebuild,
    network_rebuild,
)
from repro.sim import RngRegistry, Simulator
from repro.units import GB, TB, GiB, MiB

__all__ = ["EXPERIMENT"]


def _availability() -> Dict:
    study = AvailabilityStudy(StudyParams(horizon_years=100.0, trials=20), seed=17)
    results = study.run()
    return {
        name: {
            "downtime_h_per_disk_year": round(r.disk_downtime_hours_per_disk_year, 4),
            "availability": r.availability,
            "nines": round(r.nines, 2),
        }
        for name, r in results.items()
    }


def _reconstruction(
    detect_races: bool = False, metrics: Optional[MetricsRegistry] = None
) -> Dict:
    rows = []
    for size_tb in (0.5, 1.0, 3.0):
        size = int(size_tb * TB)
        network = network_rebuild(size)
        assisted = fabric_assisted_rebuild(size)
        rows.append(
            [
                f"{size_tb:.1f} TB",
                round(network.seconds / 3600.0, 2),
                round(assisted.seconds / 3600.0, 2),
                round(network.seconds / assisted.seconds, 2),
                round(network.network_bytes / GB, 1),
            ]
        )
    # Live drill at a smaller size (event-driven path).
    deployment = build_deployment(
        config=DeploymentConfig(detect_races=detect_races), metrics=metrics
    )
    deployment.settle(15.0)
    drill = RebuildDrill(deployment)

    def run_drill(assisted):
        return (
            yield from drill.run("disk4", "disk0", 2 * GiB, fabric_assisted=assisted)
        )

    network_drill = deployment.sim.run_until_event(
        deployment.sim.process(run_drill(False))
    )
    assisted_drill = deployment.sim.run_until_event(
        deployment.sim.process(run_drill(True))
    )
    return {
        "headers": ["Rebuild", "net h", "fabric h", "speedup", "net GB moved"],
        "rows": rows,
        "drill": {"network": network_drill, "fabric": assisted_drill},
        "races": list(deployment.sim.races) if detect_races else [],
    }


def _scrubbing(
    detect_races: bool = False, metrics: Optional[MetricsRegistry] = None
) -> Dict:
    latencies = {}
    races: List = []
    for interval_hours in (6.0, 24.0, 7 * 24.0):
        sim = Simulator(detect_races=detect_races, metrics=metrics)
        disk = SimulatedDisk(sim, "d0")
        model = LatentErrorModel(
            sim=sim, disk=disk, rng=RngRegistry(21), annual_lse_rate=0.0001
        )
        injected_at = 3600.0
        sim.defer(injected_at, lambda m=model: m.errors.add(0))
        Scrubber(
            sim, model, scrub_interval=interval_hours * 3600.0, scan_bytes=64 * MiB
        )
        sim.run(until=30 * 24 * 3600.0)
        if model.detected:
            latencies[f"{interval_hours:.0f}h"] = round(
                (model.detected[0][0] - injected_at) / 3600.0, 2
            )
        else:
            latencies[f"{interval_hours:.0f}h"] = None
        if detect_races:
            races.extend(sim.races)
    return {"detection_latency_hours": latencies, "races": races}


def _build_result() -> ExperimentResult:
    """Run all three studies.

    The event-driven paths (rebuild drill, scrubbing) share one obs
    registry.  The experiment declares no params, so
    ``_reconstruction`` and ``_scrubbing`` take ``detect_races`` to arm
    the race detector on them directly.
    """
    registry = MetricsRegistry()
    availability = _availability()
    reconstruction = _reconstruction(metrics=registry)
    scrubbing = _scrubbing(metrics=registry)
    drill = reconstruction["drill"]
    latencies = scrubbing["detection_latency_hours"]
    raw: Dict = {
        "availability": availability,
        "reconstruction": reconstruction,
        "scrubbing": scrubbing,
        "anchors": {
            "ustore_gains_nines": availability["ustore"]["nines"]
            > availability["single_attached"]["nines"] + 1.0,
            "fabric_rebuild_faster": drill["fabric"]["seconds"]
            < drill["network"]["seconds"],
            "fabric_rebuild_offloads_network": drill["fabric"]["network_bytes"] == 0,
            "shorter_scrub_detects_sooner": latencies["6h"] < latencies["168h"],
        },
    }
    return ExperimentResult(
        metrics={
            "ustore_nines": availability["ustore"]["nines"],
            "single_attached_nines": availability["single_attached"]["nines"],
            "drill_network_seconds": drill["network"]["seconds"],
            "drill_fabric_seconds": drill["fabric"]["seconds"],
            "scrub_detection_latency_hours": latencies,
        },
        paper_expected={
            "failover_gains_availability": True,
            "fabric_rebuild_avoids_network": True,
        },
        anchors=dict(raw["anchors"]),
        obs=registry.dump(),
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = ["Reliability extensions (availability / rebuild / scrubbing)", ""]
    lines.append("Availability (host MTTF 3.4 months, MTTR 2h, 16 disks):")
    for name, stats in result["availability"].items():
        lines.append(
            f"  {name:<16} {stats['downtime_h_per_disk_year']:>9.4f} "
            f"downtime h/disk-year   {stats['nines']:.2f} nines"
        )
    lines.append("")
    lines.append("Reconstruction (network vs fabric-assisted):")
    lines.append(
        format_table(result["reconstruction"]["headers"], result["reconstruction"]["rows"])
    )
    drill = result["reconstruction"]["drill"]
    lines.append(
        f"  live 2 GB drill: network {drill['network']['seconds']:.1f}s "
        f"({drill['network']['network_bytes'] / GB:.1f} GB over GbE) vs "
        f"fabric {drill['fabric']['seconds']:.1f}s "
        f"(incl. {drill['fabric']['switch_seconds']:.1f}s switch, 0 network bytes)"
    )
    lines.append("")
    lines.append(
        f"Scrub detection latency: {result['scrubbing']['detection_latency_hours']}"
    )
    lines.append("")
    for name, holds in result["anchors"].items():
        lines.append(f"  anchor {name}: {'OK' if holds else 'FAILED'}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="reliability",
    paper_ref="§IV-E / §VIII (future work, quantified)",
    description="Availability, rebuild and scrubbing studies",
    builder=_build_result,
)
