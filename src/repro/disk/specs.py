"""Disk and connection parameters, calibrated to the paper's prototype.

The prototype uses Toshiba DT01ACA300 3TB 7200rpm disks (§V-B),
connected either natively over SATA or through a SATA-to-USB 3.0 bridge
(SSK HE-G130).  The service-time model in :mod:`repro.disk.model`
decomposes one I/O into::

    T = command_overhead(connection, op)
      + positioning(op)              # random access only
      + transfer_size / media_rate
      + chunk_penalty(connection, op) * extra_track_crossings  # random only
      + mix_penalty(connection, size)                          # mixed only

Every constant below is calibrated from Table II of the paper (see the
inline derivations); the *model* is mechanical, the *numbers* are the
prototype's.  Power constants come from Table III (disk) and §VII-C
(bridge, switch, hub in :mod:`repro.fabric.power`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.units import TB, MiB

__all__ = [
    "ConnectionProfile",
    "ConnectionType",
    "DiskPowerProfile",
    "DiskSpec",
    "CONNECTIONS",
    "DT01ACA300",
    "TOSHIBA_POWER_SATA",
    "TOSHIBA_POWER_USB",
]


class ConnectionType(enum.Enum):
    """The three connection configurations of Table II."""

    SATA = "SATA"
    USB = "USB"
    HUB_AND_SWITCH = "H&S"


@dataclass(frozen=True)
class DiskSpec:
    """Mechanical parameters of one disk model.

    ``positioning_read/write`` are the average seek + rotational-latency
    costs of a random access (writes pay extra settle time; the Table II
    derivation gives 5.14 ms for reads and 11.45 ms for writes on the
    DT01ACA300).  ``track_bytes`` approximates the data per track on the
    outer zones; random transfers larger than a track pay a head-switch
    penalty per extra track (the *chunk penalty*, which depends on the
    connection because the USB bridge write-caches across crossings).
    """

    name: str
    capacity_bytes: int
    rpm: int
    media_rate: float  # sustained B/s on outer zones
    positioning_read: float  # s
    positioning_write: float  # s
    track_bytes: int
    spin_up_time: float  # s, spun-down -> ready
    spin_down_time: float  # s, ready -> spun-down


@dataclass(frozen=True)
class ConnectionProfile:
    """Per-connection service-time constants (calibrated to Table II).

    * ``overhead_read/write`` — fixed per-command cost.  SATA: 54/68 µs.
      USB adds the bridge's protocol translation: 165/141 µs (writes are
      cheaper than reads through the bridge because it acknowledges
      writes from its buffer).
    * ``chunk_read/write`` — extra cost per additional track crossed by
      a *random* transfer.  On SATA a random 4 MB write pays ~11.9 ms
      per crossing (head settle, Table II: 57.5 MB/s); the bridge's
      write-back cache halves it and its read-ahead hides read
      crossings entirely (USB 4 MB random read is *faster* than SATA,
      147.9 vs 129.1 MB/s).
    * ``mix_fixed/mix_transfer_factor`` — the penalty a 50/50 mix pays
      per operation over the pure-workload mean, modelled as
      ``a + b * transfer_time`` (read/write direction turnaround).
    * ``rand_mix_fixed`` — the (much smaller) mixing penalty for random
      workloads, where turnaround hides inside positioning.
    * ``fabric_hop_latency`` — added per hub/switch hop (H&S column);
      negligible, per the paper's conclusion.
    """

    connection: ConnectionType
    overhead_read: float
    overhead_write: float
    chunk_read: float
    chunk_write: float
    mix_fixed: float
    mix_transfer_factor: float
    rand_mix_fixed: float
    fabric_hop_latency: float = 0.0


# -- Toshiba DT01ACA300 (3TB, 7200 rpm) --------------------------------------

DT01ACA300 = DiskSpec(
    name="TOSHIBA DT01ACA300",
    capacity_bytes=3 * TB,
    rpm=7200,
    # Table II, 4MB sequential read: 184.8-185.8 MB/s -> ~186 MB/s media.
    media_rate=186e6,
    # Table II, 4KB random read @ SATA: 191.9 IO/s = 5.211 ms; minus
    # 54 us overhead + 21 us transfer -> 5.14 ms positioning.
    positioning_read=5.14e-3,
    # 4KB random write @ SATA: 86.9 IO/s = 11.507 ms -> 11.45 ms.
    positioning_write=11.45e-3,
    track_bytes=MiB,
    spin_up_time=8.0,
    spin_down_time=3.0,
)


_SATA = ConnectionProfile(
    connection=ConnectionType.SATA,
    # 4KB seq read 13378 IO/s -> 74.75 us = overhead + 21 us transfer.
    overhead_read=53.7e-6,
    # 4KB seq write 11211 IO/s -> 89.2 us.
    overhead_write=68.2e-6,
    # 4MB random read 129.1 MB/s -> 31.0 ms; 3 extra crossings -> 1.1 ms each.
    chunk_read=1.10e-3,
    # 4MB random write 57.5 MB/s -> 69.6 ms; 3 crossings -> 11.9 ms each.
    chunk_write=11.87e-3,
    # 4KB seq 50% 8066 IO/s and 4MB seq 50% 105.7 MB/s -> a + b*T fit.
    mix_fixed=28e-6,
    mix_transfer_factor=0.672,
    # 4KB rand 50% 105.4 IO/s vs 119.6 mean -> ~1.1 ms.
    rand_mix_fixed=1.13e-3,
)

_USB = ConnectionProfile(
    connection=ConnectionType.USB,
    # 4KB seq read 5380 IO/s -> 185.9 us.
    overhead_read=164.9e-6,
    # 4KB seq write 6166 IO/s -> 162.2 us.
    overhead_write=141.2e-6,
    # 4MB random read 147.9 MB/s: read-ahead hides crossings.
    chunk_read=0.0,
    # 4MB random write 79.3 MB/s -> 50.4 ms; 3 crossings -> 5.4 ms each.
    chunk_write=5.38e-3,
    # 4KB seq 50% 4294 IO/s and 4MB seq 50% 119.7 MB/s -> a + b*T fit.
    mix_fixed=55e-6,
    mix_transfer_factor=0.470,
    rand_mix_fixed=1.0e-3,
)

_HS = ConnectionProfile(
    connection=ConnectionType.HUB_AND_SWITCH,
    # Table II shows H&S within noise of plain USB: hub/switch hops add
    # ~1 us each (two hubs + two switches on the prototype path).
    overhead_read=_USB.overhead_read,
    overhead_write=_USB.overhead_write,
    chunk_read=_USB.chunk_read,
    chunk_write=_USB.chunk_write,
    mix_fixed=_USB.mix_fixed,
    mix_transfer_factor=_USB.mix_transfer_factor,
    rand_mix_fixed=_USB.rand_mix_fixed,
    fabric_hop_latency=1e-6,
)

CONNECTIONS = {
    ConnectionType.SATA: _SATA,
    ConnectionType.USB: _USB,
    ConnectionType.HUB_AND_SWITCH: _HS,
}


@dataclass(frozen=True)
class DiskPowerProfile:
    """Power draw (watts) of one disk in each state (Table III)."""

    spun_down: float
    idle: float
    active: float


#: Table III, SATA row: the bare disk.
TOSHIBA_POWER_SATA = DiskPowerProfile(spun_down=0.05, idle=4.71, active=6.66)

#: Table III, USB-bridge row: disk + bridge as measured at the enclosure.
TOSHIBA_POWER_USB = DiskPowerProfile(spun_down=1.56, idle=5.76, active=7.56)
