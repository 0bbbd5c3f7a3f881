"""The UStore Controller (§IV-C): executes topology commands.

Two Controllers run on two controlling hosts of each deploy unit in a
primary/backup arrangement.  The Master sends explicit scheduling
commands such as "connect disk A to host H1"; the Controller plans the
switch turns with Algorithm 1 (:func:`repro.fabric.switching.plan_switches`),
drives them through its microcontroller, then verifies within a
timeout — by asking the involved EndPoints for their USB views — that
the expected connections materialized, rolling the switches back
otherwise.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

from repro.fabric.switching import SwitchConflict, plan_switches
from repro.fabric.topology import Fabric, SwitchSetting
from repro.hardware.microcontroller import ControlPlane
from repro.net.network import Network
from repro.net.rpc import RemoteError, RpcClient, RpcServer, RpcTimeout
from repro.sim import Event, Resource, Simulator
from repro.usbsim.bus import UsbBus

__all__ = ["Controller", "CommandFailed"]

#: §IV-C step 3: the pre-set verification timeout ("e.g., 30s"), in
#: seconds, and the period of the EndPoint polls within it.
VERIFY_TIMEOUT = 30.0
VERIFY_POLL_INTERVAL = 0.5


class CommandFailed(Exception):
    """A scheduling command could not be executed (conflict or timeout)."""


class Controller:
    """One Controller instance (primary or backup)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        fabric: Fabric,
        bus: UsbBus,
        control_plane: ControlPlane,
        host_addresses: Dict[str, str],
        is_primary: bool = True,
    ):
        self.sim = sim
        self.network = network
        self.address = address
        self.fabric = fabric
        self.bus = bus
        self.control_plane = control_plane
        self.host_addresses = host_addresses
        self.is_primary = is_primary
        self.alive = True
        self.commands = 0
        self.commands_failed = 0
        self.rollbacks = 0
        self.switch_turns = 0
        sim.metrics.publish(
            "controller",
            self,
            ("commands", "commands_failed", "rollbacks", "switch_turns"),
        )
        self._m_execute = sim.metrics.histogram("controller.execute_seconds")

        # §IV-C step 1: the fabric is locked per command.
        self._lock = Resource(sim, capacity=1, name=f"fabric-lock:{address}")
        self.rpc = RpcServer(sim, network, address)
        self.rpc_client = RpcClient(sim, network, f"{address}.client")
        self.rpc.register("controller.execute", self._on_execute)
        self.rpc.register("controller.reachable_hosts", self._on_reachable_hosts)

    def crash(self) -> None:
        self.alive = False
        self.network.set_alive(self.address, False)
        self.network.set_alive(f"{self.address}.client", False)

    def recover(self) -> None:
        self.alive = True
        self.network.set_alive(self.address, True)
        self.network.set_alive(f"{self.address}.client", True)
        if not self.is_primary:
            # §III-B: the backup's microcontroller takes over the signals.
            self.control_plane.failover_to_backup()

    def take_over_control_plane(self) -> None:
        """Power the backup microcontroller when the primary is lost."""
        self.control_plane.failover_to_backup()

    # -- RPC handlers ----------------------------------------------------------

    def _on_reachable_hosts(self, disk_id: str) -> List[str]:
        return self.fabric.reachable_hosts(disk_id)

    def _on_execute(self, pairs: List[Tuple[str, str]]):
        """Plan, turn, verify; generator so the RPC replies when done."""
        return self._execute(pairs)

    def _execute(self, pairs: List[Tuple[str, str]]) -> Generator[Event, None, dict]:
        pairs = [tuple(p) for p in pairs]
        yield self._lock.request()
        self.commands += 1
        started = self.sim.now
        try:
            # Step 2: determine the switches to turn (Algorithm 1).
            try:
                plan = plan_switches(self.fabric, pairs)
            except SwitchConflict as exc:
                self.commands_failed += 1
                raise CommandFailed(f"conflict: {exc} (victims: {exc.victims})")
            previous = {
                setting.switch_id: self.fabric.node(setting.switch_id).state
                for setting in plan.turns
            }
            # Step 3: drive the microcontroller, one switch at a time.
            for setting in plan.turns:
                self.control_plane.set_switch(setting.switch_id, setting.state)
            self.switch_turns += len(plan.turns)
            self.bus.sync()
            verified = yield from self._verify(pairs)
            if not verified:
                # Roll back to the original states and report failure.
                for switch_id, state in previous.items():
                    self.control_plane.set_switch(switch_id, state)
                self.bus.sync()
                self.rollbacks += 1
                self.commands_failed += 1
                if self.sim.tracer.enabled:
                    self.sim.tracer.instant(
                        "controller.rollback",
                        controller=self.address,
                        pairs=len(pairs),
                        turns=len(plan.turns),
                    )
                raise CommandFailed(
                    f"verification timed out after {VERIFY_TIMEOUT}s; "
                    f"rolled back {len(previous)} switch(es)"
                )
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    "controller.execute",
                    controller=self.address,
                    pairs=len(pairs),
                    turns=len(plan.turns),
                )
            return {
                "turned": [(s.switch_id, s.state) for s in plan.turns],
                "already_satisfied": list(plan.already_satisfied),
            }
        finally:
            self._m_execute.observe(self.sim.now - started)
            self._lock.release()

    def _verify(self, pairs: List[Tuple[str, str]]) -> Generator[Event, None, bool]:
        """Poll involved EndPoints until every disk shows up, or timeout."""
        deadline = self.sim.now + VERIFY_TIMEOUT
        remaining = dict(pairs)
        while remaining and self.sim.now < deadline:
            yield self.sim.timeout(VERIFY_POLL_INTERVAL)
            satisfied = []
            for disk_id, host_id in remaining.items():
                address = self.host_addresses.get(host_id)
                if address is None:
                    continue
                try:
                    view = yield from self.rpc_client.call(
                        address, "endpoint.usb_view", timeout=1.0
                    )
                except (RpcTimeout, RemoteError):
                    continue
                if disk_id in view:
                    satisfied.append(disk_id)
            for disk_id in satisfied:
                del remaining[disk_id]
        return not remaining
