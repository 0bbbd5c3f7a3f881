"""Per-system CapEx models for the Table I comparison (§VI).

All estimates target the paper's scenario: **10 PB of raw capacity on
3 TB media**.  UStore, BACKBLAZE and Pergamum are composed from BOMs
using the paper's stated assumptions (Storage Pod enclosure economics
from [22], Cubieboard3 as the Pergamum ARM, $4 / $100 per 1G / 10G
Ethernet port, x2 markup on bare fabric ICs).  The two commercial
systems (Dell MD3260i, StorageTek SL150) are quoted figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cost.bom import BillOfMaterials
from repro.units import TB

__all__ = [
    "CostEstimate",
    "backblaze_estimate",
    "md3260i_estimate",
    "pergamum_estimate",
    "sl150_estimate",
    "ustore_estimate",
    "TARGET_CAPACITY_BYTES",
]

TARGET_CAPACITY_BYTES = 10_000 * TB  # 10 PB raw
DISK_CAPACITY_BYTES = 3 * TB  # 3 TB SATA
SATA_DISK_PRICE = 100.0  # §VI: "3TB SATA HDDs, which cost about $100"

# BACKBLAZE Storage Pod 4.0 [22]: 45 disks per 4U pod; the pod without
# drives (chassis, PSUs, fans, boards, cabling, assembly).
POD_DISKS = 45
POD_WITHOUT_DRIVES = 3469.0
# Compute portion of the pod (motherboard, CPU, RAM, boot drive) that
# Pergamum tomes replace with per-disk ARMs.
POD_COMPUTE_PORTION = 700.0

# Pergamum tome parts: Cubieboard3-class ARM board with native SATA and
# GbE [27], plus its share of the Ethernet interconnect tree
# ($4 per 1G port; two $100 10G uplink ports amortized over a pod).
CUBIEBOARD_PRICE = 53.0
ETHERNET_1G_PORT = 4.0
ETHERNET_10G_PORT = 100.0
UPLINKS_PER_POD = 2

# UStore deploy unit: 64 disks in a 4U enclosure (§VI), four hosts.
UNIT_DISKS = 64
# Chassis, power supplies, fans, cabling — Storage Pod economics minus
# the compute tray (§VI uses [22]'s numbers the same way).
UNIT_CHASSIS = 1820.0
# Fabric ICs (all "less than $1 each", §VI); counts follow the ring
# fabric scaled to 64 disks: one bridge + one 2:1 switch per disk, one
# switch per leaf hub, 12 hubs. x2 markup applies (bare components).
BRIDGE_IC = 0.80
SWITCH_IC = 0.70
HUB_IC = 0.90
UNIT_LEAF_HUBS = 8
UNIT_ROOT_HUBS = 4
MICROCONTROLLER_PRICE = 25.0  # Arduino-class board, two per unit

# Commercial systems: quoted configurations (§VI / Table I).
MD3260I_CAPEX = 3_340_000.0
MD3260I_ATTEX = 1_525_000.0
SL150_CAPEX = 1_748_000.0


@dataclass(frozen=True)
class CostEstimate:
    """One row of Table I."""

    system: str
    media: str
    capex: float
    attex: Optional[float]  # capital expense without disks; None for tape
    bom: Optional[BillOfMaterials] = None

    @property
    def capex_thousands(self) -> float:
        return self.capex / 1000.0

    @property
    def attex_thousands(self) -> Optional[float]:
        return None if self.attex is None else self.attex / 1000.0


def _disks_needed(per_enclosure: int) -> tuple:
    enclosures = math.ceil(
        TARGET_CAPACITY_BYTES / (per_enclosure * DISK_CAPACITY_BYTES)
    )
    return enclosures, enclosures * per_enclosure


def backblaze_estimate() -> CostEstimate:
    pods, disks = _disks_needed(POD_DISKS)
    bom = BillOfMaterials("BACKBLAZE @ 10PB")
    bom.add("storage pod (no drives)", POD_WITHOUT_DRIVES, pods)
    attex = bom.total()
    bom.add("3TB SATA disk", SATA_DISK_PRICE, disks)
    return CostEstimate("BACKBLAZE", "SATA HD", bom.total(), attex, bom)


def pergamum_estimate() -> CostEstimate:
    pods, disks = _disks_needed(POD_DISKS)
    bom = BillOfMaterials("Pergamum (no NVRAM) @ 10PB")
    bom.add("pod enclosure (no compute)", POD_WITHOUT_DRIVES - POD_COMPUTE_PORTION, pods)
    bom.add("ARM board (Cubieboard3)", CUBIEBOARD_PRICE, disks)
    bom.add("1G Ethernet port", ETHERNET_1G_PORT, disks)
    bom.add("10G uplink port", ETHERNET_10G_PORT, pods * UPLINKS_PER_POD)
    attex = bom.total()
    bom.add("3TB SATA disk", SATA_DISK_PRICE, disks)
    return CostEstimate("Pergamum", "SATA HD", bom.total(), attex, bom)


def ustore_estimate() -> CostEstimate:
    units, disks = _disks_needed(UNIT_DISKS)
    bom = BillOfMaterials("UStore @ 10PB")
    bom.add("4U enclosure/PSU/fans", UNIT_CHASSIS, units)
    bom.add("SATA-USB bridge IC", BRIDGE_IC, disks, markup=True)
    bom.add("2:1 switch IC", SWITCH_IC, disks + units * UNIT_LEAF_HUBS, markup=True)
    bom.add("hub IC", HUB_IC, units * (UNIT_LEAF_HUBS + UNIT_ROOT_HUBS), markup=True)
    bom.add("microcontroller", MICROCONTROLLER_PRICE, units * 2)
    attex = bom.total()
    bom.add("3TB SATA disk", SATA_DISK_PRICE, disks)
    return CostEstimate("UStore", "SATA HD", bom.total(), attex, bom)


def md3260i_estimate() -> CostEstimate:
    return CostEstimate("DELL PowerVault MD3260i", "Near-line SAS", MD3260I_CAPEX, MD3260I_ATTEX)


def sl150_estimate() -> CostEstimate:
    return CostEstimate("Sun StorageTek SL150", "LTO6 Tape", SL150_CAPEX, None)
