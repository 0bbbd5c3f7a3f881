"""Disk power-state machine (spin up/down, §IV-F and Table III)."""

from __future__ import annotations

import enum

__all__ = ["DiskPowerState", "DiskStateError", "SpinStateMachine"]


class DiskStateError(Exception):
    """Raised on an invalid power-state transition."""


class DiskPowerState(enum.Enum):
    POWERED_OFF = "powered_off"
    SPUN_DOWN = "spun_down"
    SPINNING_UP = "spinning_up"
    IDLE = "idle"
    ACTIVE = "active"


# Allowed transitions; ACTIVE<->IDLE toggles freely with I/O activity.
_TRANSITIONS = {
    DiskPowerState.POWERED_OFF: {DiskPowerState.SPUN_DOWN},
    DiskPowerState.SPUN_DOWN: {DiskPowerState.SPINNING_UP, DiskPowerState.POWERED_OFF},
    DiskPowerState.SPINNING_UP: {DiskPowerState.IDLE},
    DiskPowerState.IDLE: {
        DiskPowerState.ACTIVE,
        DiskPowerState.SPUN_DOWN,
        DiskPowerState.POWERED_OFF,
    },
    DiskPowerState.ACTIVE: {DiskPowerState.IDLE},
}


class SpinStateMachine:
    """Tracks one disk's power state and counts spin cycles.

    The spin-up counter feeds the adaptive spin-down policy of §IV-F
    (a host lengthens the idle timeout of a disk that thrashes).
    """

    def __init__(self, initial: DiskPowerState = DiskPowerState.IDLE):
        self.state = initial
        self.spin_up_count = 0

    @property
    def is_spinning(self) -> bool:
        return self.state in (DiskPowerState.IDLE, DiskPowerState.ACTIVE)

    def transition(self, new_state: DiskPowerState) -> None:
        if new_state is self.state:
            return
        allowed = _TRANSITIONS[self.state]
        if new_state not in allowed:
            raise DiskStateError(
                f"illegal transition {self.state.value} -> {new_state.value}"
            )
        if new_state is DiskPowerState.SPINNING_UP:
            self.spin_up_count += 1
        self.state = new_state
