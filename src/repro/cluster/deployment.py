"""Wiring a complete UStore deployment in one call.

A :class:`Deployment` assembles every layer of Figure 3: the fabric
with its simulated disks and USB buses, the hardware control plane, the
coordination cluster, master candidates, per-host EndPoints, the two
Controllers, and a factory for ClientLibs.  Tests, benchmarks and the
examples all build on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.controller import Controller, ControllerConfig
from repro.cluster.clientlib import ClientLib
from repro.cluster.endpoint import EndPoint, EndPointConfig
from repro.cluster.master import Master, MasterConfig
from repro.cluster.metadata import SysConf
from repro.coord import CoordConfig, CoordReplica, build_cluster
from repro.disk.device import SimulatedDisk
from repro.disk.specs import ConnectionType
from repro.fabric.builders import prototype_fabric
from repro.fabric.topology import Fabric
from repro.hardware.microcontroller import ControlPlane
from repro.hardware.relays import RelayBank
from repro.net.network import Network
from repro.obs import MetricsRegistry, RequestTracer
from repro.sim import RngRegistry, Simulator
from repro.usbsim.bus import UsbBus
from repro.usbsim.params import UsbQuirks, UsbTimingParams

__all__ = ["Deployment", "DeploymentConfig", "build_deployment"]


@dataclass(frozen=True)
class DeploymentConfig:
    unit_id: str = "unit0"
    num_coord_replicas: int = 3
    num_masters: int = 2
    seed: int = 7
    # Opt-in same-timestamp race detection (repro.analysis.races).
    detect_races: bool = False
    usb_timing: UsbTimingParams = UsbTimingParams()
    usb_quirks: UsbQuirks = UsbQuirks()
    endpoint: EndPointConfig = EndPointConfig()
    master: MasterConfig = MasterConfig()
    controller: ControllerConfig = ControllerConfig()
    coord: CoordConfig = CoordConfig()


@dataclass
class Deployment:
    """Handles to every component of a running UStore system."""

    sim: Simulator
    rng: RngRegistry
    network: Network
    fabric: Fabric
    disks: Dict[str, SimulatedDisk]
    bus: UsbBus
    control_plane: ControlPlane
    relays: RelayBank
    coord_replicas: List[CoordReplica]
    sysconf: SysConf
    masters: List[Master]
    endpoints: Dict[str, EndPoint]
    controllers: List[Controller]
    config: DeploymentConfig
    clients: List[ClientLib] = field(default_factory=list)

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
        return self.fabric.attached_host(disk_id)

    def crash_host(self, host_id: str) -> None:
        """Kill a host: endpoint silent, its targets unreachable."""
        self.endpoints[host_id].crash()

    def recover_host(self, host_id: str) -> None:
        self.endpoints[host_id].recover()


def build_deployment(
    fabric: Optional[Fabric] = None,
    config: DeploymentConfig = DeploymentConfig(),
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[RequestTracer] = None,
) -> Deployment:
    """Assemble a full UStore system around ``fabric`` (default: the
    16-disk, 4-host prototype of §V-B).

    Passing a :class:`~repro.obs.MetricsRegistry` arms the obs layer on
    every component; the same registry may be reused across sequential
    deployments to aggregate a whole experiment (the clock rebinds to
    each new simulator).  Passing a
    :class:`~repro.obs.RequestTracer` likewise arms causal request
    tracing on every instrumented component (clock rebinds the same
    way).
    """
    sim = Simulator(detect_races=config.detect_races, metrics=metrics, tracer=tracer)
    rng = RngRegistry(config.seed)
    network = Network(sim, rng=rng)
    fabric = fabric or prototype_fabric()

    disks = {
        node.node_id: SimulatedDisk(
            sim, node.node_id, connection=ConnectionType.HUB_AND_SWITCH
        )
        for node in fabric.disks
    }
    bus = UsbBus(sim, fabric, rng=rng, timing=config.usb_timing, quirks=config.usb_quirks)
    control_plane = ControlPlane(fabric)
    relays = RelayBank(sim, disks, bus=bus)

    coord_replicas = build_cluster(
        sim, network, size=config.num_coord_replicas, rng=rng, config=config.coord
    )
    coord_servers = [r.address for r in coord_replicas]

    hosts = fabric.hosts()
    host_addresses = {h: f"{h}.endpoint" for h in hosts}
    controller_hosts = [f"{config.unit_id}.controller0", f"{config.unit_id}.controller1"]
    sysconf = SysConf(
        deploy_units=[config.unit_id],
        hosts_of_unit={config.unit_id: list(hosts)},
        disks_of_unit={config.unit_id: sorted(disks)},
        host_addresses=host_addresses,
        controller_hosts={config.unit_id: controller_hosts},
    )
    sysconf.validate()

    endpoints = {
        host: EndPoint(
            sim,
            network,
            host,
            host_addresses[host],
            bus,
            disks,
            coord_servers,
            config=config.endpoint,
        )
        for host in hosts
    }

    controllers = [
        Controller(
            sim,
            network,
            controller_hosts[i],
            fabric,
            bus,
            control_plane,
            host_addresses,
            is_primary=(i == 0),
            config=config.controller,
        )
        for i in range(2)
    ]

    masters = [
        Master(
            sim,
            network,
            f"master{i}",
            coord_servers,
            sysconf,
            disk_capacities={d: disks[d].spec.capacity_bytes for d in disks},
            config=config.master,
        )
        for i in range(config.num_masters)
    ]

    bus.sync()  # boot enumeration
    return Deployment(
        sim=sim,
        rng=rng,
        network=network,
        fabric=fabric,
        disks=disks,
        bus=bus,
        control_plane=control_plane,
        relays=relays,
        coord_replicas=coord_replicas,
        sysconf=sysconf,
        masters=masters,
        endpoints=endpoints,
        controllers=controllers,
        config=config,
    )
