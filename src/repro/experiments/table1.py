"""Experiment: Table I — CapEx comparison of five storage solutions.

Regenerates the paper's cost table for 10 PB of raw capacity and checks
the headline claims (UStore ~24% cheaper than BACKBLAZE with media,
~55% cheaper without).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cost import cost_table, ustore_savings_vs_backblaze
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import format_table, relative_error

__all__ = ["EXPERIMENT", "PAPER_TABLE1"]

#: Paper values, thousands of dollars: (CapEx, AttEx).
PAPER_TABLE1 = {
    "DELL PowerVault MD3260i": (3340, 1525),
    "Sun StorageTek SL150": (1748, None),
    "Pergamum": (756, 415),
    "BACKBLAZE": (598, 257),
    "UStore": (456, 115),
}


def _build_result() -> ExperimentResult:
    rows: List[List] = []
    for estimate in cost_table():
        paper_capex, paper_attex = PAPER_TABLE1[estimate.system]
        rows.append(
            [
                estimate.system,
                estimate.media,
                round(estimate.capex_thousands),
                paper_capex,
                None if estimate.attex is None else round(estimate.attex_thousands),
                paper_attex,
            ]
        )
    savings = ustore_savings_vs_backblaze()
    claims = {"capex_saving": 0.24, "attex_saving": 0.55}
    raw = {
        "headers": ["System", "Media", "CapEx$k", "paper", "AttEx$k", "paper"],
        "rows": rows,
        "capex_saving_vs_backblaze": savings["capex_saving"],
        "attex_saving_vs_backblaze": savings["attex_saving"],
        "paper_claims": claims,
    }
    return ExperimentResult(
        metrics={
            "capex_saving_vs_backblaze": savings["capex_saving"],
            "attex_saving_vs_backblaze": savings["attex_saving"],
        },
        paper_expected=dict(claims),
        relative_errors={
            "capex_saving": relative_error(
                savings["capex_saving"], claims["capex_saving"]
            ),
            "attex_saving": relative_error(
                savings["attex_saving"], claims["attex_saving"]
            ),
        },
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = ["Table I: estimated CapEx of a 10PB raw deployment", ""]
    lines.append(format_table(result["headers"], result["rows"]))
    lines.append("")
    lines.append(
        f"UStore vs BACKBLAZE: CapEx {result['capex_saving_vs_backblaze']:.0%} lower "
        f"(paper: 24%), AttEx {result['attex_saving_vs_backblaze']:.0%} lower (paper: 55%)"
    )
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="table1",
    paper_ref="Table I",
    description="CapEx comparison of five storage solutions (10 PB)",
    builder=_build_result,
)
