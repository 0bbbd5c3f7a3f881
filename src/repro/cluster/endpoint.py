"""The UStore EndPoint: one per host connected to a deploy unit (§IV-B).

Responsibilities, per the paper:

* monitor the host's status and send heartbeats (host health, visible
  disks, workload) to the Master;
* prove the host alive by that heartbeat stream alone, which the
  Master watches (§IV-E).  No znode records the hosts, because nothing
  read one (DESIGN.md §1): the EndPoint holds no coordination session
  and, as a ClientLib does, only reads the master pointer;
* report the locally observed USB tree so the Controller can assemble
  its view of the interconnect fabric;
* expose allocated storage spaces to the network as iSCSI targets;
* serve the disk power interface upper-layer services use (§IV-F).

Exposure and power commands carry the sending Master's fencing token
(:class:`~repro.cluster.metadata.Fence`); one older than the newest
token seen is refused.

The default spin-down policy itself is :mod:`repro.power.policy`,
attached over a set of disks with :func:`~repro.power.policy.run_policy`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.cluster.metadata import DiskStatus, Fence, SpaceRecord
from repro.cluster.namespace import MASTER_POINTER, target_name
from repro.coord.client import CoordSession
from repro.disk.device import SimulatedDisk
from repro.disk.states import DiskPowerState
from repro.net.iscsi import IscsiTargetServer, StorageVolume
from repro.net.network import Network
from repro.net.rpc import RpcClient
from repro.sim import Event, Grid, Simulator
from repro.usbsim.bus import UsbBus

__all__ = ["EndPoint"]

#: Seconds between heartbeat rounds to the Master.
HEARTBEAT_INTERVAL = 0.5


class EndPoint:
    """Host-side agent: heartbeats, USB monitoring, target exposure."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host_id: str,
        address: str,
        bus: UsbBus,
        disks: Dict[str, SimulatedDisk],
        coord_servers: List[str],
    ):
        self.sim = sim
        self.network = network
        self.host_id = host_id
        self.address = address
        self.bus = bus
        self.disks = disks
        self.alive = True

        self.targets = IscsiTargetServer(sim, network, address)
        self.rpc_client = RpcClient(sim, network, f"{address}.client")
        # Used for reads only; never started (see the module docstring).
        self.coord = CoordSession(sim, network, f"{address}.coord", coord_servers)
        self._master_address: Optional[str] = None
        self._exposed: Dict[str, SpaceRecord] = {}  # target name -> record
        self.expose_log: List[tuple] = []  # (time, target name)
        self.heartbeats_sent = 0
        self.fence = Fence()
        # Set while the heartbeat chain is stopped (host dead): the grid
        # its ticks would have followed, on which recover() resumes it.
        self._heartbeat_grid: Optional[Grid] = None

        self.targets.rpc.register("endpoint.expose", self._on_expose)
        self.targets.rpc.register("endpoint.withdraw", self._on_withdraw)
        self.targets.rpc.register("endpoint.usb_view", self._on_usb_view)
        self.targets.rpc.register("endpoint.set_disk_power", self._on_set_disk_power)
        bus.register_listener(host_id, self)

        sim.defer(HEARTBEAT_INTERVAL, self._heartbeat)

    # -- lifecycle ----------------------------------------------------------

    def crash(self) -> None:
        """Take the host down (network-wise); its disks become orphans."""
        self.alive = False
        self.network.set_alive(self.address, False)
        self.network.set_alive(f"{self.address}.client", False)
        self.network.set_alive(self.coord.address, False)

    def recover(self) -> None:
        self.alive = True
        self.network.set_alive(self.address, True)
        self.network.set_alive(f"{self.address}.client", True)
        self.network.set_alive(self.coord.address, True)
        self._master_address = None
        grid, self._heartbeat_grid = self._heartbeat_grid, None
        if grid is not None:
            self.sim.defer_at(grid.first_after(self.sim.now), self._heartbeat)

    # -- hot-plug listener ----------------------------------------------------

    def on_attach(self, disk_id: str) -> None:
        """A disk appeared: nothing to expose until the Master says so."""

    def on_detach(self, disk_id: str) -> None:
        """A disk vanished: withdraw its targets so sessions fail fast."""
        stale = [t for t, rec in self._exposed.items() if rec.disk_id == disk_id]
        for target in stale:
            self.targets.withdraw(target)
            del self._exposed[target]

    # -- heartbeats ------------------------------------------------------------

    def _disk_report(self) -> Dict[str, DiskStatus]:
        report = {}
        for disk_id in self.bus.os_view(self.host_id):
            disk = self.disks.get(disk_id)
            if disk is None:
                continue
            if disk.failed:
                state = DiskStatus.FAILED
            elif disk.power_state is DiskPowerState.SPUN_DOWN:
                state = DiskStatus.SPUN_DOWN
            elif disk.power_state is DiskPowerState.POWERED_OFF:
                state = DiskStatus.POWERED_OFF
            else:
                state = DiskStatus.ONLINE
            report[disk_id] = state
        return report

    def _heartbeat(self) -> None:
        """One heartbeat round: discover the master if needed, then report.

        The next round is scheduled one interval after this one's reply
        or failure.  The chain stops while the host is dead.
        """
        if not self.alive:
            self._heartbeat_grid = Grid(self.sim.now, HEARTBEAT_INTERVAL)
            return
        if self._master_address is not None:
            self._send_heartbeat(self._master_address)
            return
        # A missing pointer answers NoNodeError, and _on_pointer retries
        # on the next round after any error.
        self.coord.leader_request("coord.read", ("get", MASTER_POINTER), self._on_pointer)

    def _next_heartbeat(self) -> None:
        self.sim.defer(HEARTBEAT_INTERVAL, self._heartbeat)

    def _on_pointer(self, address: Any, error: Optional[Exception]) -> None:
        if error is not None or address is None:
            self._next_heartbeat()
            return
        self._master_address = address
        self._send_heartbeat(address)

    def _send_heartbeat(self, master: str) -> None:
        payload = {
            "host_id": self.host_id,
            "disks": self._disk_report(),
            "exposed": len(self._exposed),
        }
        self.rpc_client.invoke(
            master, "master.heartbeat", (payload,), self._on_heartbeat_reply, timeout=1.0
        )

    def _on_heartbeat_reply(self, _result: Any, error: Optional[Exception]) -> None:
        if error is None:
            self.heartbeats_sent += 1
        else:
            self._master_address = None  # re-discover next round
        self._next_heartbeat()

    # -- RPC handlers ---------------------------------------------------------

    def _on_expose(self, token: int, record_dict: dict) -> str:
        self.fence.admit(token)
        record = SpaceRecord.from_dict(record_dict)
        if record.disk_id not in self.bus.os_view(self.host_id):
            raise RuntimeError(f"{self.host_id} does not see {record.disk_id}")
        name = target_name(record.space_id)
        if name not in self.targets.exposed_targets():
            volume = StorageVolume(
                volume_id=record.space_id,
                disk=self.disks[record.disk_id],
                offset=record.offset,
                length=record.length,
            )
            self.targets.expose(name, volume)
            self.expose_log.append((self.sim.now, name))
        self._exposed[name] = record
        return name

    def _on_withdraw(self, token: int, space_id: str) -> bool:
        self.fence.admit(token)
        name = target_name(space_id)
        self.targets.withdraw(name)
        return self._exposed.pop(name, None) is not None

    def _on_usb_view(self) -> List[str]:
        return sorted(self.bus.os_view(self.host_id))

    def _on_set_disk_power(self, token: int, disk_id: str, action: str):
        """Disk power interface for upper-layer services (§IV-F)."""
        self.fence.admit(token)
        disk = self.disks.get(disk_id)
        if disk is None or disk_id not in self.bus.os_view(self.host_id):
            raise RuntimeError(f"{self.host_id} does not control {disk_id}")
        if action == "spin_down":
            disk.spin_down()
            return True
        if action == "spin_up":
            def wait() -> Generator[Event, None, bool]:
                yield disk.spin_up()
                return True

            return wait()
        raise ValueError(f"unknown power action {action!r}")
