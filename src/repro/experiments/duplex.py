"""Experiment: §VII-A duplex throughput — 540 MB/s per port, 2160 MB/s total.

USB 3.0 is full duplex: with half the disks reading and half writing,
one root port carries ~540 MB/s, and the prototype's four root paths
sustain ~2160 MB/s in aggregate.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.deployment import build_deployment
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import relative_error
from repro.obs import MetricsRegistry
from repro.units import bytes_per_sec_to_mbps
from repro.workload.iometer import model_throughput
from repro.workload.specs import WorkloadSpec

__all__ = ["EXPERIMENT"]

PAPER_PER_PORT = 540.0
PAPER_AGGREGATE = 2160.0


def _build_result() -> ExperimentResult:
    registry = MetricsRegistry()
    deployment = build_deployment(metrics=registry)
    fabric = deployment.fabric
    spec = WorkloadSpec.parse("4MB-S-R")

    host0_disks = [d for d, h in fabric.attachment_map().items() if h == "host0"]
    per_port = model_throughput(
        fabric, host0_disks, spec, duplex_split=True, metrics=registry
    )

    all_disks = sorted(fabric.attachment_map())
    aggregate = model_throughput(
        fabric, all_disks, spec, duplex_split=True, metrics=registry
    )
    raw = {
        "per_port_mb_s": bytes_per_sec_to_mbps(per_port["total_bytes_per_second"]),
        "aggregate_mb_s": bytes_per_sec_to_mbps(aggregate["total_bytes_per_second"]),
        "paper_per_port": PAPER_PER_PORT,
        "paper_aggregate": PAPER_AGGREGATE,
    }
    return ExperimentResult(
        metrics={
            "per_port_mb_s": raw["per_port_mb_s"],
            "aggregate_mb_s": raw["aggregate_mb_s"],
        },
        paper_expected={
            "per_port_mb_s": PAPER_PER_PORT,
            "aggregate_mb_s": PAPER_AGGREGATE,
        },
        relative_errors={
            "per_port": relative_error(raw["per_port_mb_s"], PAPER_PER_PORT),
            "aggregate": relative_error(raw["aggregate_mb_s"], PAPER_AGGREGATE),
        },
        obs=registry.dump(),
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    return (
        "Duplex throughput (half reads / half writes, 4MB sequential)\n\n"
        f"  one root port: {result['per_port_mb_s']:.0f} MB/s "
        f"(paper: {result['paper_per_port']:.0f})\n"
        f"  four ports:    {result['aggregate_mb_s']:.0f} MB/s "
        f"(paper: {result['paper_aggregate']:.0f})"
    )


EXPERIMENT = Experiment(
    name="duplex",
    paper_ref="§VII-A (duplex)",
    description="Full-duplex throughput: 540 MB/s per port, 2160 MB/s total",
    builder=_build_result,
)
