"""Experiment: Figure 5 — total throughput of multiple disks on one host.

Reproduces the scaling curves: disks attached to a single host through
the prototype fabric, one Iometer worker per disk, for the paper's
workload mix.  The figure's anchor observations (§VII-A) are checked:

* small transfers scale with disk count and saturate the USB tree
  around 8 disks (the host-controller command-rate budget);
* for large transfers two disks fill the ~300 MB/s root port;
* bandwidth is shared evenly among the disks.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import format_table, gather_disks_on_host, relative_error
from repro.obs import MetricsRegistry
from repro.units import bytes_per_sec_to_mbps
from repro.workload.iometer import model_throughput
from repro.workload.specs import WorkloadSpec

__all__ = ["DISK_COUNTS", "EXPERIMENT", "WORKLOADS"]

DISK_COUNTS = (1, 2, 4, 8, 12)
WORKLOADS = ("4KB-S-R", "4KB-S-W", "4KB-R-R", "4MB-S-R", "4MB-S-W", "4MB-R-R")

#: §VII-A: "two disks are enough to fill up the root hub's bandwidth,
#: which is around 300MB/s".
PAPER_ROOT_PORT_MB_S = 300.0


def _build_result(
    seed: int, detect_races: bool, settle_seconds: float
) -> ExperimentResult:
    """Build one deployment per disk count and model the workload mix.

    ``detect_races`` arms the kernel's same-timestamp race detector on
    every deployment (adds a ``"races"`` entry to the raw result); one
    obs registry aggregates all five disk counts; ``seed`` feeds the
    deployments' RNG registry.  ``settle_seconds > 0`` also runs each
    deployment's event loop for that long after the throughput series
    is computed, so simulator events (bus registration, heartbeats)
    execute; at the default 0.0 the model is closed-form and processes
    no events.
    """
    registry = MetricsRegistry()
    series: Dict[str, List[float]] = {name: [] for name in WORKLOADS}
    per_disk_even = True
    races: List = []
    for count in DISK_COUNTS:
        deployment = build_deployment(
            config=DeploymentConfig(detect_races=detect_races, seed=seed),
            metrics=registry,
        )
        disks = gather_disks_on_host(deployment, "host0", count)
        for name in WORKLOADS:
            spec = WorkloadSpec.parse(name)
            result = model_throughput(deployment.fabric, disks, spec, metrics=registry)
            series[name].append(bytes_per_sec_to_mbps(result["total_bytes_per_second"]))
            shares = list(result["per_disk"].values())
            if max(shares) - min(shares) > 1e-3 * max(shares):
                per_disk_even = False
        if settle_seconds > 0.0:
            deployment.settle(settle_seconds)
        if detect_races:
            races.extend(deployment.sim.races)
    rows: List[List] = []
    for name in WORKLOADS:
        rows.append([name] + [round(v, 1) for v in series[name]])
    anchors = {
        # §VII-A: "two disks are enough to fill up the root hub's
        # bandwidth, which is around 300MB/s".
        "large_transfers_saturate_at_2_disks": series["4MB-S-R"][1] >= 295.0,
        # "The sequential throughput of 8 disks can saturate the USB
        # tree": growth from 8 to 12 disks is marginal.
        "small_seq_saturates_by_8_disks": (
            series["4KB-S-R"][4] - series["4KB-S-R"][3]
        )
        < 0.25 * (series["4KB-S-R"][3] - series["4KB-S-R"][2]),
        # "throughput increases with the number of disks" (small I/O).
        "small_io_scales": all(
            series["4KB-S-R"][i] < series["4KB-S-R"][i + 1] for i in range(3)
        ),
        "shared_evenly": per_disk_even,
    }
    raw: Dict = {
        "headers": ["Workload"] + [f"{c} disks" for c in DISK_COUNTS],
        "rows": rows,
        "series_mb_per_s": series,
        "anchors": anchors,
    }
    if detect_races:
        raw["races"] = races
    two_disk_4mb = series["4MB-S-R"][1]
    return ExperimentResult(
        metrics={
            "series_mb_per_s": series,
            "two_disk_4mb_seq_read_mb_s": two_disk_4mb,
        },
        paper_expected={"root_port_mb_s": PAPER_ROOT_PORT_MB_S},
        relative_errors={
            "two_disk_4mb_seq_read": relative_error(
                two_disk_4mb, PAPER_ROOT_PORT_MB_S
            )
        },
        anchors=dict(anchors),
        obs=registry.dump(),
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = ["Figure 5: total MB/s of N disks on one host (model)", ""]
    lines.append(format_table(result["headers"], result["rows"]))
    lines.append("")
    for name, holds in result["anchors"].items():
        lines.append(f"  anchor {name}: {'OK' if holds else 'FAILED'}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="figure5",
    paper_ref="Figure 5 / §VII-A",
    description="Multi-disk throughput scaling on one host",
    builder=_build_result,
    params={"seed": 7, "detect_races": False, "settle_seconds": 0.0},
    # Settling lets the smoke run execute real simulator events, so its
    # BENCH records see ``sim.events``.
    smoke={"settle_seconds": 12.0},
)
