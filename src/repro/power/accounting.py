"""Whole-deployment power metering.

Wall draw is constant between disk power-state transitions and fabric
power changes, so the meter integrates it exactly instead of sampling
it.  Disk energy comes from the disks' own state residencies
(:meth:`SimulatedDisk.energy_joules`, DC) divided by
:data:`~repro.power.systems.PSU_EFFICIENCY`.  Everything else — fabric
hubs and switches, fans, USB host adapters — is a step function that
only moves at relay flips and fabric epoch bumps (switch turns,
failures, repairs); the meter records its breakpoints in
:attr:`PowerMeter.series`.

With an :class:`~repro.obs.energy.EnergyLedger` armed, :meth:`start`
subscribes the ledger to every disk's transitions and hands it each
overhead step, so the ledger's accounts sum to :meth:`energy_joules`
(the conservation identity of DESIGN §15).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.deployment import Deployment
from repro.disk.device import state_watts
from repro.disk.states import DiskPowerState
from repro.fabric.power import FabricPowerModel
from repro.obs.energy import EnergyLedger
from repro.power.systems import (
    FAN_COUNT,
    FAN_POWER,
    PSU_EFFICIENCY,
    USB_HOST_ADAPTER_COUNT,
    USB_HOST_ADAPTER_POWER,
)
from repro.units import Joules, SimSeconds, Watts

__all__ = ["PowerMeter"]


class PowerMeter:
    """Exact wall-energy integral over a deployment, from :meth:`start`."""

    def __init__(self, deployment: Deployment, ledger: Optional[EnergyLedger] = None):
        self.deployment = deployment
        self.fabric_model = FabricPowerModel(deployment.fabric)
        self.ledger = ledger
        #: ``(time, overhead wall watts)`` at the start and at every
        #: change since: the non-disk step function.
        self.series: List[Tuple[float, Watts]] = []
        self._disk_joules_at_start = 0.0
        # Track relay state by subscription (one initial sync, then a
        # callback per flip) instead of re-deriving the whole gating map
        # from the relay bank on every reading.
        for disk_id, powered in deployment.relays.closed.items():
            self._apply_relay(disk_id, powered)
        deployment.relays.add_listener(self._apply_relay)
        deployment.fabric.add_epoch_listener(self._step_overhead)

    def _apply_relay(self, disk_id: str, powered: bool) -> None:
        """Mirror one relay flip into the fabric power-gating model."""
        self.fabric_model.powered[disk_id] = powered
        bridge = f"bridge{disk_id[len('disk'):]}"
        if bridge in self.fabric_model.powered:
            self.fabric_model.powered[bridge] = powered
        self._step_overhead()

    def _overhead_dc_watts(self) -> float:
        return (
            self.fabric_model.total_power()
            + FAN_POWER * FAN_COUNT
            + USB_HOST_ADAPTER_POWER * USB_HOST_ADAPTER_COUNT
        )

    def _disk_dc_watts(self) -> float:
        return sum(
            disk.power_draw(disk.default_power_profile())
            for disk in self.deployment.disks.values()
        )

    def _disk_dc_joules(self) -> float:
        return sum(disk.energy_joules() for disk in self.deployment.disks.values())

    def overhead_watts(self) -> Watts:
        """Non-disk wall power right now (fabric, fans, host adapters)."""
        return Watts(self._overhead_dc_watts() / PSU_EFFICIENCY)

    def instantaneous_watts(self) -> Watts:
        """Wall power right now."""
        return Watts(
            (self._disk_dc_watts() + self._overhead_dc_watts()) / PSU_EFFICIENCY
        )

    def _step_overhead(self) -> None:
        """Record a breakpoint if the overhead draw changed."""
        if not self.series:
            return
        watts = self.overhead_watts()
        if watts == self.series[-1][1]:
            return
        now = self.deployment.sim.now
        self.series.append((now, watts))
        if self.ledger is not None:
            self.ledger.step_overhead(now, watts)

    def start(self) -> None:
        """Open the metering window at the current sim time."""
        if self.series:
            return
        now = self.deployment.sim.now
        watts = self.overhead_watts()
        self.series.append((now, watts))
        self._disk_joules_at_start = self._disk_dc_joules()
        ledger = self.ledger
        if ledger is not None:
            ledger.step_overhead(now, watts)
            for disk_id in sorted(self.deployment.disks):
                disk = self.deployment.disks[disk_id]
                profile = disk.default_power_profile()
                ledger.watch(
                    disk,
                    {
                        state: state_watts(profile, state) / PSU_EFFICIENCY
                        for state in DiskPowerState
                    },
                )

    def energy_joules(self, end_time: Optional[SimSeconds] = None) -> Joules:
        """Wall energy from :meth:`start` to ``end_time`` (default now).

        An ``end_time`` past the current sim time extends today's draw.
        """
        if not self.series:
            return Joules(0.0)
        now = self.deployment.sim.now
        end = end_time if end_time is not None else now
        if end < now:
            raise ValueError(f"cannot integrate to {end} before now ({now})")
        disks = (
            self._disk_dc_joules()
            - self._disk_joules_at_start
            + self._disk_dc_watts() * (end - now)
        )
        overhead = 0.0
        for index, (t0, watts) in enumerate(self.series):
            t1 = self.series[index + 1][0] if index + 1 < len(self.series) else end
            overhead += watts * (t1 - t0)
        return Joules(disks / PSU_EFFICIENCY + overhead)
