"""Power relays and rolling spin-up (§III-B).

Each HDD enclosure's 12 V feed passes through a relay the Controller
can open and close.  At power-on time the relays are closed in a
staggered sequence ("rolling spin-up") so tens of disks do not draw
their spin-up surge simultaneously and overwhelm the power supply.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.disk.device import SimulatedDisk
from repro.sim import Event, Simulator
from repro.usbsim.bus import UsbBus

__all__ = ["RelayBank", "RelayListener", "rolling_spin_up"]

#: ``(disk_id, powered)`` — fired on every relay state *change*, so
#: observers (the power meter's fabric-gating model) can track relay
#: state by subscription instead of re-scanning the bank.
RelayListener = Callable[[str, bool], None]


class RelayBank:
    """One relay per disk enclosure; open relay = enclosure dark."""

    def __init__(self, sim: Simulator, disks: Dict[str, SimulatedDisk], bus: Optional[UsbBus] = None):
        self.sim = sim
        self.disks = disks
        self.bus = bus
        self.closed: Dict[str, bool] = {d: True for d in disks}
        self._listeners: List[RelayListener] = []

    def add_listener(self, listener: RelayListener) -> None:
        """Call ``listener(disk_id, powered)`` on every relay flip."""
        self._listeners.append(listener)

    def _notify(self, disk_id: str, powered: bool) -> None:
        for listener in self._listeners:
            listener(disk_id, powered)

    def open_relay(self, disk_id: str) -> None:
        """Cut power: the disk drops off the USB bus immediately."""
        self._require(disk_id)
        if not self.closed[disk_id]:
            return
        self.closed[disk_id] = False
        disk = self.disks[disk_id]
        if disk.states.is_spinning:
            disk.spin_down()
        disk.power_off()
        if self.bus is not None:
            self.bus.set_disk_power(disk_id, False)
        self._notify(disk_id, False)

    def close_relay(self, disk_id: str) -> Event:
        """Restore power; returns an event firing when the disk is ready."""
        self._require(disk_id)
        disk = self.disks[disk_id]
        if self.closed[disk_id] and disk.states.is_spinning:
            done = self.sim.event()
            done.succeed()
            return done
        was_closed = self.closed[disk_id]
        self.closed[disk_id] = True
        disk.power_on()
        ready = disk.spin_up()
        if self.bus is not None:
            # The bridge enumerates as soon as the enclosure has power.
            self.bus.set_disk_power(disk_id, True)
        if not was_closed:
            self._notify(disk_id, True)
        return ready

    def is_powered(self, disk_id: str) -> bool:
        self._require(disk_id)
        return self.closed[disk_id]

    def _require(self, disk_id: str) -> None:
        if disk_id not in self.disks:
            raise KeyError(f"unknown disk {disk_id!r}")


def rolling_spin_up(
    sim: Simulator,
    relays: RelayBank,
    disk_ids: Optional[List[str]] = None,
    stagger: float = 2.0,
    group_size: int = 4,
) -> Generator[Event, None, float]:
    """Close relays in groups of ``group_size`` every ``stagger`` seconds.

    Returns (as the process result) the time when every disk is ready.
    Limiting concurrent spin-ups bounds the power-supply surge: a 7200rpm
    3.5" disk draws ~2x its active power while spinning up.
    """
    ids = list(disk_ids if disk_ids is not None else relays.disks)
    pending = []
    for start in range(0, len(ids), group_size):
        group = ids[start : start + group_size]
        for disk_id in group:
            pending.append(relays.close_relay(disk_id))
        if start + group_size < len(ids):
            yield sim.timeout(stagger)
    if pending:
        yield sim.all_of(pending)
    return sim.now
