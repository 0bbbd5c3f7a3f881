"""Algorithm 1 of the paper: planning which switches to turn.

Given a command — a list of ``(disk, host)`` pairs — the planner finds
the switch turns that realize it without disturbing any disk that is
*not* part of the command.  Switches already used by the current paths
of uninvolved disks are *occupied*: if a command needs an occupied
switch in a different state, the command conflicts and an
:class:`SwitchConflict` describing the collateral damage is raised (the
Master then decides whether to abort or to extend the command, §IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fabric.components import FabricError, NodeKind, Switch
from repro.fabric.topology import Fabric, SwitchSetting
from repro.obs.metrics import MetricsRegistry

__all__ = ["SwitchConflict", "SwitchPlan", "plan_switches", "execute_plan"]


class SwitchConflict(FabricError):
    """The command cannot be realized without disturbing other disks."""

    def __init__(self, message: str, victims: Sequence[str] = ()):
        super().__init__(message)
        self.victims = tuple(victims)


@dataclass(frozen=True)
class SwitchPlan:
    """The turns required to execute a command."""

    pairs: Tuple[Tuple[str, str], ...]
    turns: Tuple[SwitchSetting, ...]
    already_satisfied: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def is_noop(self) -> bool:
        return not self.turns


def plan_switches(
    fabric: Fabric,
    disk_host_pairs: Sequence[Tuple[str, str]],
    respect_failures: bool = True,
) -> SwitchPlan:
    """The paper's ``SwitchesToTurn`` (Algorithm 1).

    Parameters are pairs of (disk id, target host id).  Returns a
    :class:`SwitchPlan`; raises :class:`SwitchConflict` if the command
    would force an uninvolved disk off its current host, naming the
    victims, or :class:`FabricError` if a target is unreachable.
    """
    if not disk_host_pairs:
        return SwitchPlan(pairs=(), turns=())
    involved: Set[str] = set()
    for disk_id, host_id in disk_host_pairs:
        if fabric.node(disk_id).kind is not NodeKind.DISK:
            raise FabricError(f"{disk_id!r} is not a disk")
        if disk_id in involved:
            raise FabricError(f"disk {disk_id!r} appears twice in the command")
        involved.add(disk_id)
        if host_id not in fabric.hosts():
            raise FabricError(f"unknown host {host_id!r}")

    # Lines 4-8: switches pinned by the current paths of uninvolved,
    # currently-attached disks.  occupied[switch] = required state.
    occupied: Dict[str, int] = {}
    pinned_by: Dict[str, List[str]] = {}
    for disk in fabric.disks:
        if disk.node_id in involved or disk.failed:
            continue
        if fabric.attached_port(disk.node_id) is None:
            continue  # detached disks pin nothing
        walk = fabric.trace_up(disk.node_id)
        for node_id in walk:
            node = fabric.nodes[node_id]
            if isinstance(node, Switch):
                occupied[node_id] = node.state
                pinned_by.setdefault(node_id, []).append(disk.node_id)

    # Lines 9-17: collect the turns, checking each against occupancy.
    # Where the fabric offers several paths for a pair, the planner
    # tries them in order of fewest turns and conflicts only when every
    # path collides with a pinned switch.
    turns: List[SwitchSetting] = []
    satisfied: List[str] = []
    for disk_id, host_id in disk_host_pairs:
        candidates = fabric.paths_to_host(disk_id, host_id, respect_failures)
        if not candidates:
            raise FabricError(f"no path from {disk_id!r} to host {host_id!r}")

        def turns_needed(path) -> int:
            return sum(
                1
                for s in path.settings
                if fabric.nodes[s.switch_id].state != s.state
            )

        candidates.sort(key=turns_needed)
        chosen = None
        first_conflict: Optional[SwitchConflict] = None
        for path in candidates:
            conflict = None
            for setting in path.settings:
                pinned = occupied.get(setting.switch_id)
                if pinned is not None and pinned != setting.state:
                    victims = pinned_by.get(setting.switch_id, [])
                    conflict = SwitchConflict(
                        f"turning {setting.switch_id!r} to state {setting.state} "
                        f"for {disk_id!r}->{host_id!r} would disconnect "
                        f"{', '.join(victims)}",
                        victims=victims,
                    )
                    break
            if conflict is None:
                chosen = path
                break
            if first_conflict is None:
                first_conflict = conflict
        if chosen is None:
            assert first_conflict is not None
            raise first_conflict

        for setting in chosen.settings:
            switch = fabric.nodes[setting.switch_id]
            assert isinstance(switch, Switch)
            if setting.switch_id in occupied:
                continue  # already pinned in the desired state
            if switch.state != setting.state:
                turns.append(setting)
            else:
                satisfied.append(setting.switch_id)
            # From now on this switch is occupied at the planned state
            # (line 15), so later pairs in the same command must agree.
            occupied[setting.switch_id] = setting.state
            pinned_by.setdefault(setting.switch_id, []).append(disk_id)
    return SwitchPlan(
        pairs=tuple(disk_host_pairs),
        turns=tuple(turns),
        already_satisfied=tuple(satisfied),
    )


def execute_plan(
    fabric: Fabric, plan: SwitchPlan, metrics: Optional[MetricsRegistry] = None
) -> None:
    """Apply a plan's turns to the fabric (one by one, as in §IV-C).

    The fabric counts the command and its physical switch turns; when a
    :class:`~repro.obs.MetricsRegistry` is supplied, those counts are
    published to it (``switch.commands`` / ``switch.turns`` /
    ``switch.noop_commands``).
    """
    fabric.commands += 1
    if plan.is_noop:
        fabric.noop_commands += 1
    else:
        fabric.turns += len(plan.turns)
    if metrics is not None:
        metrics.publish("switch", fabric, ("commands", "noop_commands", "turns"))
    fabric.apply_settings(plan.turns)
