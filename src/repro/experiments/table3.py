"""Experiment: Table III — power of one disk (SATA vs USB bridge).

Drives a simulated disk through the three states the paper measures
(spin down, idle, read/write) and samples its power draw under both
connection profiles.
"""

from __future__ import annotations

from typing import Dict, List

from repro.disk.device import IoRequest, SimulatedDisk
from repro.disk.specs import ConnectionType, TOSHIBA_POWER_SATA, TOSHIBA_POWER_USB
from repro.disk.states import DiskPowerState
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import format_table, relative_error
from repro.sim import Simulator
from repro.units import MiB

__all__ = ["EXPERIMENT", "PAPER_TABLE3"]

#: Paper rows (watts): spin down / idle / read-write.
PAPER_TABLE3 = {
    "Specs": (1.0, 5.2, 6.4),
    "SATA": (0.05, 4.71, 6.66),
    "USB bridge": (1.56, 5.76, 7.56),
}


def _measure(connection: ConnectionType) -> tuple:
    """Sample power in each state by actually driving the device."""
    sim = Simulator()
    disk = SimulatedDisk(sim, "d0", connection=connection)
    profile = disk.default_power_profile()
    idle_watts = disk.power_draw(profile)

    samples = {}

    def sample_active() -> None:
        samples["active"] = disk.power_draw(profile)

    disk.submit(IoRequest(offset=0, size=4 * MiB, is_read=False))
    sim.defer(0.01, sample_active)  # mid-transfer
    sim.run()
    assert disk.power_state is DiskPowerState.IDLE
    disk.spin_down()
    spun_down_watts = disk.power_draw(profile)
    return (spun_down_watts, idle_watts, samples["active"])


def _build_result() -> ExperimentResult:
    measured = {
        "SATA": _measure(ConnectionType.SATA),
        "USB bridge": _measure(ConnectionType.USB),
    }
    rows: List[List] = []
    rows.append(["Specs", *PAPER_TABLE3["Specs"], None, None, None])
    for name in ("SATA", "USB bridge"):
        spun, idle, active = measured[name]
        p_spun, p_idle, p_active = PAPER_TABLE3[name]
        rows.append([name, p_spun, p_idle, p_active, round(spun, 2), round(idle, 2), round(active, 2)])
    errors: Dict[str, float] = {}
    metrics: Dict[str, object] = {}
    states = ("spin_down_w", "idle_w", "active_w")
    for mode in ("SATA", "USB bridge"):
        key = mode.lower().replace(" ", "_")
        for state, value, paper in zip(states, measured[mode], PAPER_TABLE3[mode]):
            metrics[f"{key}.{state}"] = value
            errors[f"{key}.{state}"] = relative_error(value, paper)
    raw = {
        "headers": ["Mode", "SpinDn(p)", "Idle(p)", "R/W(p)", "SpinDn", "Idle", "R/W"],
        "rows": rows,
        "measured": measured,
    }
    return ExperimentResult(
        metrics=metrics,
        paper_expected={m: PAPER_TABLE3[m] for m in ("SATA", "USB bridge")},
        relative_errors=errors,
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = ["Table III: power of one disk (watts), paper (p) vs simulated", ""]
    lines.append(format_table(result["headers"], result["rows"]))
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="table3",
    paper_ref="Table III",
    description="Power of one disk: SATA vs USB bridge",
    builder=_build_result,
)
