"""The Master's three metadata families (§IV-A).

* :class:`SysConf` — static system configuration: deploy units, their
  hosts and disks, and the mappings between them.
* :class:`SysStat` — real-time status: host/disk states and the current
  disk→host mapping.  Kept only in memory, reconstructed by
  interrogating the hosts.
* storage allocation (StorAlloc) — persisted synchronously through the
  coordination service; see :mod:`repro.cluster.namespace` for the
  global space naming and :class:`SpaceRecord` for the stored value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "DiskStatus",
    "Fence",
    "HostStatus",
    "SpaceRecord",
    "StaleMasterError",
    "SysConf",
    "SysStat",
]


class HostStatus(enum.Enum):
    ONLINE = "online"
    SUSPECTED = "suspected"
    CRASHED = "crashed"


class DiskStatus(enum.Enum):
    ONLINE = "online"
    SPUN_DOWN = "spun_down"
    POWERED_OFF = "powered_off"
    FAILED = "failed"


@dataclass
class SysConf:
    """Static configuration of the whole UStore system."""

    deploy_units: List[str] = field(default_factory=list)
    hosts_of_unit: Dict[str, List[str]] = field(default_factory=dict)
    disks_of_unit: Dict[str, List[str]] = field(default_factory=dict)
    host_addresses: Dict[str, str] = field(default_factory=dict)
    controller_hosts: Dict[str, List[str]] = field(default_factory=dict)

    def unit_of_disk(self, disk_id: str) -> Optional[str]:
        for unit, disks in self.disks_of_unit.items():
            if disk_id in disks:
                return unit
        return None

    def unit_of_host(self, host_id: str) -> Optional[str]:
        for unit, hosts in self.hosts_of_unit.items():
            if host_id in hosts:
                return unit
        return None

    def validate(self) -> None:
        for unit in self.deploy_units:
            if unit not in self.hosts_of_unit or unit not in self.disks_of_unit:
                raise ValueError(f"deploy unit {unit!r} lacks hosts or disks")
        for unit, hosts in self.hosts_of_unit.items():
            for host in hosts:
                if host not in self.host_addresses:
                    raise ValueError(f"host {host!r} has no network address")


@dataclass
class SysStat:
    """In-memory live view; rebuilt from heartbeats and USB reports."""

    host_status: Dict[str, HostStatus] = field(default_factory=dict)
    disk_status: Dict[str, DiskStatus] = field(default_factory=dict)
    disk_to_host: Dict[str, Optional[str]] = field(default_factory=dict)
    last_heartbeat: Dict[str, float] = field(default_factory=dict)
    host_load: Dict[str, int] = field(default_factory=dict)  # exposed targets

    def disks_on_host(self, host_id: str) -> List[str]:
        return sorted(d for d, h in self.disk_to_host.items() if h == host_id)

    def online_hosts(self) -> List[str]:
        return sorted(
            h for h, s in self.host_status.items() if s is HostStatus.ONLINE
        )


@dataclass(frozen=True)
class SpaceRecord:
    """One allocated storage space (the StorAlloc value)."""

    space_id: str  # global name: /unit/disk/space (namespace module)
    unit_id: str
    disk_id: str
    offset: int
    length: int
    service: str  # owning upper-layer service

    def as_dict(self) -> dict:
        return {
            "space_id": self.space_id,
            "unit_id": self.unit_id,
            "disk_id": self.disk_id,
            "offset": self.offset,
            "length": self.length,
            "service": self.service,
        }

    @staticmethod
    def from_dict(data: dict) -> "SpaceRecord":
        return SpaceRecord(**data)


class StaleMasterError(Exception):
    """A command carried the fencing token of a Master that has since
    been succeeded."""


@dataclass
class Fence:
    """The newest Master fencing token a Controller or EndPoint has seen.

    A Master's token is the sequence number of its election node, which
    grows with every activation (Chubby's sequencer, Burrows OSDI 2006).
    A command with a lower token than one already seen comes from a
    Master that has stepped down, and is refused.
    """

    highest: int = 0

    def admit(self, token: int) -> None:
        if token < self.highest:
            raise StaleMasterError(
                f"fencing token {token} is older than {self.highest}"
            )
        self.highest = token
