"""Experiment: Table V — system power of three solutions, two states."""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import format_table, relative_error
from repro.fabric.builders import prototype_fabric
from repro.power.systems import dd860_power, pergamum_power, ustore_power

__all__ = ["EXPERIMENT", "PAPER_TABLE5"]

#: Paper values (watts, 16 disks amortized; 15 for DD860/ES30).
PAPER_TABLE5 = {
    "DD860/ES30": (222.5, 83.5),
    "Pergamum": (193.5, 28.9),
    "UStore": (166.8, 22.1),
}


def _build_result() -> ExperimentResult:
    fabric = prototype_fabric()
    measured = {
        "DD860/ES30": (dd860_power(True), dd860_power(False)),
        "Pergamum": (
            pergamum_power(True).wall_total,
            pergamum_power(False).wall_total,
        ),
        "UStore": (
            ustore_power(fabric, True).wall_total,
            ustore_power(fabric, False).wall_total,
        ),
    }
    rows: List[List] = []
    worst = 0.0
    for system, (paper_on, paper_off) in PAPER_TABLE5.items():
        on, off = measured[system]
        for state, value, paper in (("spinning", on, paper_on), ("powered off", off, paper_off)):
            error = relative_error(value, paper)
            worst = max(worst, abs(error))
            rows.append([system, state, round(value, 1), paper, f"{error:+.1%}"])
    ordering_holds = all(
        measured["UStore"][i] < measured["Pergamum"][i] < measured["DD860/ES30"][i]
        for i in (0, 1)
    )
    errors: Dict[str, float] = {}
    metrics: Dict[str, object] = {"worst_cell_error": worst}
    for row in rows:
        system, state, value, paper = row[0], row[1], row[2], row[3]
        key = f"{system}.{state}".replace(" ", "_").replace("/", "_")
        metrics[key] = value
        errors[key] = relative_error(value, paper)
    raw = {
        "headers": ["System", "State", "Model W", "Paper W", "Err"],
        "rows": rows,
        "worst_error": worst,
        "ordering_holds": ordering_holds,
    }
    return ExperimentResult(
        metrics=metrics,
        paper_expected={s: v for s, v in PAPER_TABLE5.items()},
        relative_errors=errors,
        anchors={"ordering_holds": ordering_holds},
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = ["Table V: amortized power of a 16-disk unit", ""]
    lines.append(format_table(result["headers"], result["rows"]))
    lines.append("")
    lines.append(f"UStore < Pergamum < DD860 in both states: {result['ordering_holds']}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="table5",
    paper_ref="Table V",
    description="System power of three solutions, spinning vs powered off",
    builder=_build_result,
)
