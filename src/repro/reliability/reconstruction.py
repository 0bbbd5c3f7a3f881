"""Fabric-assisted data reconstruction (§IV-E's stated future work).

When a disk dies, the upper layer rebuilds its data from replicas.
Normally the replica reads stream across the data-center network from
other hosts, bottlenecked by the 1 GbE links and taxing the fabric of
unrelated services.  The paper observes that UStore's reconfigurable
interconnect enables an alternative: *switch the replica source disks
onto the rebuilding host* so the copy happens locally at disk speed,
leaving the network untouched.

Two estimators are provided:

* :func:`network_rebuild` / :func:`fabric_assisted_rebuild` —
  closed-form times from the calibrated models;
* :class:`RebuildDrill` — an event-driven drill on a live deployment:
  it actually migrates the source disk with a Master command and runs
  the copy as simulated I/O, so the switching overhead and bandwidth
  sharing are the real code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

from repro.cluster.deployment import Deployment
from repro.disk.model import DiskModel
from repro.disk.specs import ConnectionType
from repro.fabric.bandwidth import PER_DIRECTION_CAPACITY
from repro.net.rpc import RpcClient
from repro.sim import Event
from repro.units import MB, MiB
from repro.workload.specs import AccessPattern, WorkloadSpec

__all__ = [
    "RebuildDrill",
    "RebuildEstimate",
    "fabric_assisted_rebuild",
    "network_rebuild",
]

GBE_PAYLOAD = 125e6  # bytes/s on the DC network path
#: Bytes one step of a drill's copy reads and writes.
REBUILD_CHUNK_BYTES = 4 * MiB


@dataclass(frozen=True)
class RebuildEstimate:
    strategy: str
    rebuild_bytes: int
    seconds: float
    network_bytes: int

    @property
    def rate_mb_s(self) -> float:
        return self.rebuild_bytes / self.seconds / MB if self.seconds else 0.0


def _disk_seq_rate(size: int = 4 * MiB) -> float:
    model = DiskModel(connection=ConnectionType.HUB_AND_SWITCH)
    return model.demand_bytes_per_second(
        WorkloadSpec(size, AccessPattern.SEQUENTIAL, 1.0)
    )


def network_rebuild(rebuild_bytes: int) -> RebuildEstimate:
    """Baseline: stream replicas from remote hosts over GbE."""
    disk = _disk_seq_rate()
    # Source disk read and destination write both fit their ports; the
    # 1 GbE host link is the bottleneck.
    rate = min(disk, GBE_PAYLOAD, PER_DIRECTION_CAPACITY)
    return RebuildEstimate(
        strategy="network",
        rebuild_bytes=rebuild_bytes,
        seconds=rebuild_bytes / rate,
        network_bytes=rebuild_bytes,
    )


def fabric_assisted_rebuild(
    rebuild_bytes: int, switch_seconds: float = 5.0
) -> RebuildEstimate:
    """Switch the source disk to the rebuilding host, copy locally.

    Read (disk→host) and write (host→disk) travel opposite directions
    of the same duplex root port, so the copy runs at full disk speed.
    """
    disk = _disk_seq_rate()
    rate = min(disk, PER_DIRECTION_CAPACITY)
    return RebuildEstimate(
        strategy="fabric-assisted",
        rebuild_bytes=rebuild_bytes,
        seconds=switch_seconds + rebuild_bytes / rate,
        network_bytes=0,
    )


class RebuildDrill:
    """Event-driven rebuild on a live deployment.

    Copies ``rebuild_bytes`` from a *source* disk to a *destination*
    disk.  In network mode both disks stay where they are and every
    chunk crosses the simulated network twice (read response + write
    request).  In fabric mode the Master first migrates the source disk
    onto the destination disk's host, then the copy is host-local.
    """

    def __init__(self, deployment: Deployment):
        self.deployment = deployment
        self.rpc = RpcClient(
            deployment.sim, deployment.network, "rebuild-drill"
        )

    def _copy(
        self, source: str, destination: str, rebuild_bytes: int
    ) -> Generator[Event, None, None]:
        sim = self.deployment.sim
        disks = self.deployment.disks
        offset = 0
        from repro.disk.device import IoRequest

        while offset < rebuild_bytes:
            size = min(REBUILD_CHUNK_BYTES, rebuild_bytes - offset)
            yield disks[source].submit(
                IoRequest(offset=offset, size=size, is_read=True)
            )
            src_host = self.deployment.fabric.attached_host(source)
            dst_host = self.deployment.fabric.attached_host(destination)
            if src_host != dst_host:
                # Cross-host hop: serialize the chunk over GbE.
                yield sim.timeout(size / GBE_PAYLOAD)
                self._network_bytes += size
            yield disks[destination].submit(
                IoRequest(offset=offset, size=size, is_read=False)
            )
            offset += size

    def run(
        self,
        source: str,
        destination: str,
        rebuild_bytes: int,
        fabric_assisted: bool,
    ) -> Generator[Event, None, Dict]:
        sim = self.deployment.sim
        self._network_bytes = 0
        start = sim.now
        switch_seconds = 0.0
        if fabric_assisted:
            target_host = self.deployment.fabric.attached_host(destination)
            if self.deployment.fabric.attached_host(source) != target_host:
                master = self.deployment.active_master().address
                yield from self.rpc.call(
                    master, "master.migrate_disk", source, target_host, timeout=60.0
                )
            switch_seconds = sim.now - start
        yield from self._copy(source, destination, rebuild_bytes)
        return {
            "strategy": "fabric-assisted" if fabric_assisted else "network",
            "seconds": sim.now - start,
            "switch_seconds": switch_seconds,
            "network_bytes": self._network_bytes,
            "rebuild_bytes": rebuild_bytes,
        }
