"""Physical design of a deploy unit (§V-A).

The paper envisions a rack-mountable 4U enclosure holding 40-70 3.5"
disks plus the fabric, power and cooling, connected to 4 hosts: "such a
unit would be able to provide around 200 terabytes of raw disk storage
capacity using the available 4TB SATA disks, and has about 2~3 GB/s
total aggregated throughput on all 4 ports."

:func:`unit_spec` reproduces those claims from the component models, so
capacity planners can sweep disk counts, disk sizes and host counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.model import DiskModel
from repro.disk.specs import ConnectionType, TOSHIBA_POWER_USB
from repro.fabric.bandwidth import DEFAULT_DUPLEX_CAPACITY
from repro.power.systems import (
    FAN_COUNT,
    FAN_POWER,
    PSU_EFFICIENCY,
    USB_HOST_ADAPTER_POWER,
)
from repro.units import GB, TB, MiB
from repro.workload.specs import AccessPattern, WorkloadSpec

__all__ = ["UnitSpec", "unit_spec"]

#: §V-A: a 4U enclosure comfortably hosts 40-70 3.5" disks.
MIN_DISKS_4U = 40
MAX_DISKS_4U = 70
RACK_UNITS = 4


@dataclass(frozen=True)
class UnitSpec:
    """Derived specification of one deploy unit."""

    num_disks: int
    disk_capacity_bytes: int
    num_hosts: int
    raw_capacity_bytes: int
    aggregate_throughput_bytes: float
    power_spinning_watts: float
    rack_units: int = RACK_UNITS
    fits_4u: bool = True

    @property
    def raw_capacity_tb(self) -> float:
        return self.raw_capacity_bytes / TB

    @property
    def aggregate_throughput_gb_s(self) -> float:
        return self.aggregate_throughput_bytes / GB

    @property
    def capacity_per_rack_unit_tb(self) -> float:
        return self.raw_capacity_tb / self.rack_units

    @property
    def watts_per_tb(self) -> float:
        return self.power_spinning_watts / self.raw_capacity_tb


def unit_spec(
    num_disks: int = 50,
    disk_capacity_bytes: int = 4 * 10**12,
    num_hosts: int = 4,
) -> UnitSpec:
    """Derive a deploy unit's headline numbers (§V-A's envelope).

    Aggregate throughput is per-port duplex capacity times ports,
    bounded by what the disks themselves can stream.
    """
    if num_disks < 1 or num_hosts < 1:
        raise ValueError("need at least one disk and one host")
    model = DiskModel(connection=ConnectionType.HUB_AND_SWITCH)
    disk_rate = model.demand_bytes_per_second(
        WorkloadSpec(4 * MiB, AccessPattern.SEQUENTIAL, 1.0)
    )
    fabric_limit = num_hosts * DEFAULT_DUPLEX_CAPACITY
    disk_limit = num_disks * disk_rate
    throughput = min(fabric_limit, disk_limit)
    # Power: disks active + amortized fabric (~0.9W/disk at prototype
    # density) + fans + adapters, at the wall.
    fabric_watts = 0.9 * num_disks
    dc_watts = (
        num_disks * TOSHIBA_POWER_USB.active
        + fabric_watts
        + FAN_POWER * FAN_COUNT
        + USB_HOST_ADAPTER_POWER * num_hosts
    )
    return UnitSpec(
        num_disks=num_disks,
        disk_capacity_bytes=disk_capacity_bytes,
        num_hosts=num_hosts,
        raw_capacity_bytes=num_disks * disk_capacity_bytes,
        aggregate_throughput_bytes=throughput,
        power_spinning_watts=dc_watts / PSU_EFFICIENCY,
        fits_4u=MIN_DISKS_4U <= num_disks <= MAX_DISKS_4U or num_disks < MIN_DISKS_4U,
    )
