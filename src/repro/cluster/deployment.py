"""Wiring a complete UStore deployment in one call.

"A typical UStore deployment is composed of one Master and a number of
deploy units" (§IV).  A :class:`Deployment` assembles every layer of
Figure 3 that way: each :class:`DeployUnit` holds its own fabric with
simulated disks, USB bus, hardware control plane, relays, per-host
EndPoints and Controller pair, and all units share one coordination
cluster and the master candidates, whose placement rules and failover
logic are unit-aware through SysConf.  The default is the single
16-disk, 4-host prototype unit of §V-B.  Tests, benchmarks and the
examples all build on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.controller import Controller
from repro.cluster.clientlib import ClientLib
from repro.cluster.endpoint import EndPoint
from repro.cluster.master import Master, MasterConfig
from repro.cluster.metadata import SysConf
from repro.coord import CoordReplica, build_cluster
from repro.disk.device import SimulatedDisk
from repro.disk.specs import ConnectionType
from repro.fabric.builders import ring_fabric
from repro.fabric.topology import Fabric
from repro.hardware.microcontroller import ControlPlane
from repro.hardware.relays import RelayBank
from repro.net.network import Network
from repro.obs import MetricsRegistry, RequestTracer
from repro.sim import RngRegistry, Simulator
from repro.usbsim.bus import UsbBus

__all__ = ["DeployUnit", "Deployment", "DeploymentConfig", "build_deployment"]

#: The prototype's coordination ensemble and master candidates (§IV-A).
COORD_REPLICAS = 3
MASTER_CANDIDATES = 2


@dataclass(frozen=True)
class DeploymentConfig:
    #: Deploy units under the one Master; each is a prototype unit.
    units: int = 1
    seed: int = 7
    # Opt-in same-timestamp race detection (repro.analysis.races).
    detect_races: bool = False
    master: MasterConfig = MasterConfig()


@dataclass
class DeployUnit:
    """Everything physical to one deploy unit, and the agents on it."""

    unit_id: str
    fabric: Fabric
    disks: Dict[str, SimulatedDisk]
    bus: UsbBus
    control_plane: ControlPlane
    relays: RelayBank
    endpoints: Dict[str, EndPoint] = field(default_factory=dict)
    controllers: List[Controller] = field(default_factory=list)


@dataclass
class Deployment:
    """Handles to every component of a running UStore system.

    ``disks``, ``endpoints`` and ``controllers`` span every unit.
    ``fabric``, ``bus``, ``control_plane`` and ``relays`` read the only
    unit and raise on a deployment with several.
    """

    sim: Simulator
    rng: RngRegistry
    network: Network
    units: Dict[str, DeployUnit]
    coord_replicas: List[CoordReplica]
    sysconf: SysConf
    masters: List[Master]
    config: DeploymentConfig
    clients: List[ClientLib] = field(default_factory=list)
    disks: Dict[str, SimulatedDisk] = field(init=False)
    endpoints: Dict[str, EndPoint] = field(init=False)
    controllers: List[Controller] = field(init=False)

    def __post_init__(self) -> None:
        self.disks = {}
        self.endpoints = {}
        self.controllers = []
        self._unit_of_disk: Dict[str, DeployUnit] = {}
        for unit in self.units.values():
            self.disks.update(unit.disks)
            self.endpoints.update(unit.endpoints)
            self.controllers.extend(unit.controllers)
            self._unit_of_disk.update(dict.fromkeys(unit.disks, unit))

    def _only_unit(self) -> DeployUnit:
        if len(self.units) != 1:
            raise ValueError(
                f"deployment has {len(self.units)} deploy units; "
                "read the component from deployment.units[unit_id]"
            )
        return next(iter(self.units.values()))

    @property
    def fabric(self) -> Fabric:
        return self._only_unit().fabric

    @property
    def bus(self) -> UsbBus:
        return self._only_unit().bus

    @property
    def control_plane(self) -> ControlPlane:
        return self._only_unit().control_plane

    @property
    def relays(self) -> RelayBank:
        return self._only_unit().relays

    @property
    def coord_servers(self) -> List[str]:
        return [r.address for r in self.coord_replicas]

    @property
    def metrics(self) -> MetricsRegistry:
        """The obs registry every component of this deployment reports to
        (the shared null registry unless one was passed at build time)."""
        return self.sim.metrics

    def active_master(self) -> Optional[Master]:
        for master in self.masters:
            if master.active and master.alive:
                return master
        return None

    def new_client(self, name: str, service: str = "default", **kwargs) -> ClientLib:
        client = ClientLib(
            self.sim,
            self.network,
            name,
            self.coord_servers,
            service=service,
            **kwargs,
        )
        self.clients.append(client)
        return client

    def settle(self, duration: float = 12.0) -> None:
        """Run the simulation until the control plane is in steady state
        (coordination leader elected, master active, boot enumeration
        finished, first heartbeats delivered)."""
        self.sim.run(until=self.sim.now + duration)

    def run_to_whole_second(self) -> None:
        """Run the simulation to the next whole second, ``ceil(now)``.

        Set-up ends when its coordination commits do, and their latency
        follows the jitter drawn on the replication links.  Measured
        traffic that starts on a whole second therefore starts at the
        same instant after a control-plane change."""
        self.sim.run(until=float(math.ceil(self.sim.now)))

    def host_of_disk(self, disk_id: str) -> Optional[str]:
        return self._unit_of_disk[disk_id].fabric.attached_host(disk_id)

    def crash_host(self, host_id: str) -> None:
        """Kill a host: endpoint silent, its targets unreachable."""
        self.endpoints[host_id].crash()

    def recover_host(self, host_id: str) -> None:
        self.endpoints[host_id].recover()


def build_deployment(
    config: DeploymentConfig = DeploymentConfig(),
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[RequestTracer] = None,
) -> Deployment:
    """Assemble ``config.units`` prototype units (16 disks, 4 hosts each,
    §V-B) under one coordination cluster and one set of masters.

    One unit keeps the prototype's node ids (``disk0``, ``host0``, ...);
    with several, unit ``i``'s node ids carry the prefix ``unit{i}.``.

    Passing a :class:`~repro.obs.MetricsRegistry` arms the obs layer on
    every component; the same registry may be reused across sequential
    deployments to aggregate a whole experiment (the clock rebinds to
    each new simulator).  Passing a
    :class:`~repro.obs.RequestTracer` likewise arms causal request
    tracing on every instrumented component (clock rebinds the same
    way).
    """
    if config.units < 1:
        raise ValueError("need at least one deploy unit")
    sim = Simulator(detect_races=config.detect_races, metrics=metrics, tracer=tracer)
    rng = RngRegistry(config.seed)
    network = Network(sim, rng=rng)

    # Constructors schedule events, so this order fixes the tie-breaks
    # of same-time events: hardware, coordination, agents, masters.
    units: Dict[str, DeployUnit] = {}
    for index in range(config.units):
        unit_id = f"unit{index}"
        fabric = ring_fabric(prefix=f"{unit_id}." if config.units > 1 else "")
        disks = {
            node.node_id: SimulatedDisk(
                sim, node.node_id, connection=ConnectionType.HUB_AND_SWITCH
            )
            for node in fabric.disks
        }
        bus = UsbBus(sim, fabric, rng=rng)
        units[unit_id] = DeployUnit(
            unit_id=unit_id,
            fabric=fabric,
            disks=disks,
            bus=bus,
            control_plane=ControlPlane(fabric),
            relays=RelayBank(sim, disks, bus=bus),
        )

    coord_replicas = build_cluster(sim, network, size=COORD_REPLICAS, rng=rng)
    coord_servers = [r.address for r in coord_replicas]

    sysconf = SysConf()
    for unit_id, unit in units.items():
        hosts = unit.fabric.hosts()
        sysconf.deploy_units.append(unit_id)
        sysconf.hosts_of_unit[unit_id] = list(hosts)
        sysconf.disks_of_unit[unit_id] = sorted(unit.disks)
        sysconf.host_addresses.update({h: f"{h}.endpoint" for h in hosts})
        sysconf.controller_hosts[unit_id] = [
            f"{unit_id}.controller0",
            f"{unit_id}.controller1",
        ]
    sysconf.validate()

    for unit_id, unit in units.items():
        host_addresses = {
            host: sysconf.host_addresses[host] for host in sysconf.hosts_of_unit[unit_id]
        }
        unit.endpoints = {
            host: EndPoint(
                sim,
                network,
                host,
                address,
                unit.bus,
                unit.disks,
                coord_servers,
            )
            for host, address in host_addresses.items()
        }
        unit.controllers = [
            Controller(
                sim,
                network,
                address,
                unit.fabric,
                unit.bus,
                unit.control_plane,
                host_addresses,
                is_primary=(i == 0),
            )
            for i, address in enumerate(sysconf.controller_hosts[unit_id])
        ]

    disk_capacities = {
        disk_id: disk.spec.capacity_bytes
        for unit in units.values()
        for disk_id, disk in unit.disks.items()
    }
    masters = [
        Master(
            sim,
            network,
            f"master{i}",
            coord_servers,
            sysconf,
            disk_capacities=disk_capacities,
            config=config.master,
        )
        for i in range(MASTER_CANDIDATES)
    ]

    for unit in units.values():
        unit.bus.sync()  # boot enumeration
    return Deployment(
        sim=sim,
        rng=rng,
        network=network,
        units=units,
        coord_replicas=coord_replicas,
        sysconf=sysconf,
        masters=masters,
        config=config,
    )
