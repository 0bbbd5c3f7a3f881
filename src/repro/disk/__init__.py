"""Disk models: service times, spin states, and the simulated device."""

from repro.disk.device import DiskOfflineError, IoRequest, SimulatedDisk
from repro.disk.model import DiskModel, ThroughputEstimate
from repro.disk.specs import (
    CONNECTIONS,
    ConnectionProfile,
    ConnectionType,
    DiskPowerProfile,
    DiskSpec,
    DT01ACA300,
    TOSHIBA_POWER_SATA,
    TOSHIBA_POWER_USB,
)
from repro.disk.states import DiskPowerState, DiskStateError, SpinStateMachine

__all__ = [
    "CONNECTIONS",
    "ConnectionProfile",
    "ConnectionType",
    "DiskModel",
    "DiskOfflineError",
    "DiskPowerProfile",
    "DiskPowerState",
    "DiskSpec",
    "DiskStateError",
    "DT01ACA300",
    "IoRequest",
    "SimulatedDisk",
    "SpinStateMachine",
    "ThroughputEstimate",
    "TOSHIBA_POWER_SATA",
    "TOSHIBA_POWER_USB",
]
