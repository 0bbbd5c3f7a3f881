"""Hot-plug simulation: how hosts see disks appear and disappear.

The :class:`UsbBus` watches the fabric's switch states, component
failures, and disk power.  When the picture changes (a Controller
turned switches, a hub died, a relay cut power), call :meth:`sync`:
the bus computes which host lost and which host gained each disk and
drives the corresponding OS-level events with realistic delays:

* **detach** after a short debounce on the losing host;
* **attach** on the gaining host after bus reset + *serialized*
  enumeration — a batch of N disks takes ``attach_base +
  N * enumerate_per_device``, which is exactly why Figure 6's first
  delay component grows with the number of disks switched together.

Listeners (EndPoints) receive ``on_attach(disk_id)`` / ``on_detach``
callbacks in simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol

from repro.fabric.topology import Fabric
from repro.sim import Simulator, Store
from repro.sim.rng import RngRegistry
from repro.usbsim.params import UsbQuirks, UsbTimingParams
from repro.usbsim.tree import visible_disks

__all__ = ["HostUsbListener", "HotplugEvent", "UsbBus"]


class HostUsbListener(Protocol):
    """What a host's OS layer must implement to observe hot-plug."""

    def on_attach(self, disk_id: str) -> None: ...

    def on_detach(self, disk_id: str) -> None: ...


@dataclass(frozen=True)
class HotplugEvent:
    time: float
    host_id: str
    disk_id: str
    kind: str  # "attach" or "detach"


class UsbBus:
    """Simulated USB hot-plug behaviour over a fabric."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        rng: Optional[RngRegistry] = None,
        timing: UsbTimingParams = UsbTimingParams(),
        quirks: UsbQuirks = UsbQuirks(),
    ):
        self.sim = sim
        self.fabric = fabric
        self.timing = timing
        self.quirks = quirks
        self._rng = (rng or RngRegistry(0)).stream("usbbus")
        self._listeners: Dict[str, List[HostUsbListener]] = {}
        # What each host's OS currently believes is attached.
        self._os_view: Dict[str, set] = {h: set() for h in fabric.hosts()}
        # Disks handed to a host's enumeration queue but not yet visible.
        self._enumerating: Dict[str, set] = {h: set() for h in fabric.hosts()}
        self._enum_queue: Dict[str, Store] = {
            h: Store(sim, name=f"usb-enum:{h}") for h in fabric.hosts()
        }
        self.events: List[HotplugEvent] = []
        self._disk_powered: Dict[str, bool] = {
            d.node_id: True for d in fabric.disks
        }
        for host in fabric.hosts():
            sim.process(self._enumeration_worker(host))

    # -- wiring -----------------------------------------------------------

    def register_listener(self, host_id: str, listener: HostUsbListener) -> None:
        self._listeners.setdefault(host_id, []).append(listener)

    def os_view(self, host_id: str) -> frozenset:
        """Disks the host's OS currently sees."""
        return frozenset(self._os_view[host_id])

    def set_disk_power(self, disk_id: str, powered: bool) -> None:
        """Relay control (§III-B): cutting power detaches the disk."""
        if disk_id not in self._disk_powered:
            raise KeyError(f"unknown disk {disk_id!r}")
        self._disk_powered[disk_id] = powered
        self.sync()

    # -- the core diff engine ----------------------------------------------

    def _target_view(self, host_id: str) -> set:
        visible = set(visible_disks(self.fabric, host_id))
        return {d for d in visible if self._disk_powered.get(d, False)}

    def sync(self) -> None:
        """Reconcile OS views with the fabric's current routing.

        Call after every switch turn, failure, repair or power change.
        Detaches fire after a debounce delay; attaches go through each
        host's serialized enumeration worker.
        """
        for host_id in self.fabric.hosts():
            target = self._target_view(host_id)
            known = self._os_view[host_id] | self._enumerating[host_id]
            for disk_id in sorted(known - target):
                self._begin_detach(host_id, disk_id)
            for disk_id in sorted(target - known):
                self._begin_attach(host_id, disk_id)

    def _begin_detach(self, host_id: str, disk_id: str) -> None:
        self._enumerating[host_id].discard(disk_id)

        def complete() -> None:
            if disk_id in self._os_view[host_id]:
                self._os_view[host_id].discard(disk_id)
                self.events.append(
                    HotplugEvent(self.sim.now, host_id, disk_id, "detach")
                )
                for listener in self._listeners.get(host_id, []):
                    listener.on_detach(disk_id)

        self.sim.defer(self.timing.detach_debounce, complete)

    def _begin_attach(self, host_id: str, disk_id: str) -> None:
        if (
            len(self._os_view[host_id]) + len(self._enumerating[host_id])
            >= self.quirks.max_devices_per_port
        ):
            # Intel xHCI quirk: device silently fails to enumerate.
            return
        self._enumerating[host_id].add(disk_id)
        self._enum_queue[host_id].put(disk_id)

    def _enumeration_worker(self, host_id: str):
        queue = self._enum_queue[host_id]
        while True:
            disk_id = yield queue.get()
            # Waking from idle: this batch pays the bus reset once.
            yield self.sim.timeout(self._jittered(self.timing.attach_base))
            batch = [disk_id]
            batch.extend(queue.items)
            queue.items.clear()
            for item in batch:
                yield self.sim.timeout(self._jittered(self.timing.enumerate_per_device))
                if self._rng.random() < self.quirks.undetected_switch_probability:
                    # §V-B: switching not detected; a power cycle fixes it.
                    yield self.sim.timeout(self.quirks.power_cycle_delay)
                if item not in self._enumerating[host_id]:
                    continue  # detached while waiting in the queue
                self._enumerating[host_id].discard(item)
                self._os_view[host_id].add(item)
                self.events.append(HotplugEvent(self.sim.now, host_id, item, "attach"))
                for listener in self._listeners.get(host_id, []):
                    listener.on_attach(item)
                # Devices that arrived during enumeration join the batch.
                batch.extend(queue.items)
                queue.items.clear()

    def _jittered(self, base: float) -> float:
        if self.timing.jitter <= 0:
            return base
        spread = self.timing.jitter * base
        return base + self._rng.uniform(-spread, spread)
