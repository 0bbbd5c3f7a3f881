"""Experiment: Table II — single-disk throughput, three connection types.

Runs the disk service-time model over the paper's 12-cell workload grid
for SATA, plain USB-bridge and hub-and-switch connections, reporting
each cell next to the prototype's measurement.
"""

from __future__ import annotations

from typing import Dict, List

from repro.disk.model import DiskModel
from repro.disk.specs import ConnectionType
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import format_table, relative_error
from repro.units import KiB
from repro.workload.specs import TABLE2_WORKLOADS

__all__ = ["EXPERIMENT", "PAPER_TABLE2"]

#: Paper values in TABLE2_WORKLOADS order: 4KB seq (IO/s) R/50/W, 4KB
#: rand (IO/s), 4MB seq (MB/s), 4MB rand (MB/s).
PAPER_TABLE2 = {
    "SATA": [13378, 8066, 11211, 191.9, 105.4, 86.9, 184.8, 105.7, 180.2, 129.1, 78.7, 57.5],
    "USB": [5380, 4294, 6166, 189.0, 105.2, 85.2, 185.8, 119.7, 184.0, 147.9, 95.5, 79.3],
    "H&S": [5381, 4595, 6181, 189.2, 106.0, 87.9, 185.8, 118.6, 184.9, 147.7, 97.7, 79.9],
}

_CONNECTIONS = {
    "SATA": ConnectionType.SATA,
    "USB": ConnectionType.USB,
    "H&S": ConnectionType.HUB_AND_SWITCH,
}


def _build_result() -> ExperimentResult:
    rows: List[List] = []
    worst = 0.0
    for name, connection in _CONNECTIONS.items():
        model = DiskModel(connection=connection)
        for spec, paper in zip(TABLE2_WORKLOADS, PAPER_TABLE2[name]):
            estimate = model.throughput(spec)
            if spec.transfer_size == 4 * KiB:
                value, unit = estimate.iops, "IO/s"
            else:
                value, unit = estimate.mb_per_second, "MB/s"
            error = relative_error(value, paper)
            worst = max(worst, abs(error))
            rows.append([name, spec.name, unit, round(value, 1), paper, f"{error:+.1%}"])
    raw = {
        "headers": ["Conn", "Workload", "Unit", "Model", "Paper", "Err"],
        "rows": rows,
        "worst_error": worst,
    }
    return ExperimentResult(
        metrics={"worst_cell_error": worst},
        paper_expected={"cells": PAPER_TABLE2},
        relative_errors={"worst_cell": worst},
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = ["Table II: single-disk throughput, model vs prototype", ""]
    lines.append(format_table(result["headers"], result["rows"]))
    lines.append("")
    lines.append(f"Worst cell error: {result['worst_error']:.1%}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="table2",
    paper_ref="Table II",
    description="Single-disk throughput across three connection types",
    builder=_build_result,
)
