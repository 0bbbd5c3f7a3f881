"""Experiment: Table IV — hub power vs number of connected disks."""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import format_table, relative_error
from repro.fabric.power import hub_power

__all__ = ["EXPERIMENT", "PAPER_TABLE4"]

PAPER_TABLE4 = {0: 0.21, 1: 1.06, 2: 1.23, 3: 1.47, 4: 1.67}


def _build_result() -> ExperimentResult:
    rows: List[List] = []
    worst = 0.0
    for count, paper in sorted(PAPER_TABLE4.items()):
        model = hub_power(count)
        error = relative_error(model, paper)
        worst = max(worst, abs(error))
        rows.append([count, round(model, 2), paper, f"{error:+.1%}"])
    raw = {
        "headers": ["Disks", "Model W", "Paper W", "Err"],
        "rows": rows,
        "worst_error": worst,
    }
    metrics = {f"hub_power_w.{row[0]}_disks": row[1] for row in rows}
    errors = {
        f"hub_power.{count}_disks": relative_error(hub_power(count), paper)
        for count, paper in sorted(PAPER_TABLE4.items())
    }
    return ExperimentResult(
        metrics={**metrics, "worst_cell_error": worst},
        paper_expected={f"{c}_disks": p for c, p in sorted(PAPER_TABLE4.items())},
        relative_errors=errors,
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = ["Table IV: hub power vs connected disks", ""]
    lines.append(format_table(result["headers"], result["rows"]))
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="table4",
    paper_ref="Table IV",
    description="Hub power vs number of connected disks",
    builder=_build_result,
)
