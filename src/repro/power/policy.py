"""Spin-down policies (§IV-F) as standalone, ablatable strategies.

UStore's default policy spins a disk down after a fixed idle interval,
and doubles that interval for disks observed to thrash (spin up and
down too frequently).  Upper-layer services with better knowledge of
their workload can replace it entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Protocol

from repro.disk.device import SimulatedDisk
from repro.disk.states import DiskPowerState
from repro.obs.trace import TraceScope
from repro.sim import Simulator
from repro.units import SimSeconds

__all__ = [
    "AdaptiveTimeoutPolicy",
    "FixedTimeoutPolicy",
    "SpinDownPolicy",
    "run_policy",
]


class SpinDownPolicy(Protocol):
    """What :func:`run_policy` needs from a policy object."""

    def timeout_for(self, disk_id: str) -> SimSeconds:
        """Current idle timeout for one disk."""
        ...

    def on_spin_up(self, disk_id: str, now: SimSeconds) -> None:
        """Observe a wake-up (for adaptivity)."""
        ...


@dataclass
class FixedTimeoutPolicy:
    """Spin down after a constant idle interval."""

    idle_timeout: SimSeconds = SimSeconds(300.0)

    def timeout_for(self, disk_id: str) -> SimSeconds:
        return self.idle_timeout

    def on_spin_up(self, disk_id: str, now: SimSeconds) -> None:
        """Fixed policy ignores wake-ups."""


@dataclass
class AdaptiveTimeoutPolicy:
    """§IV-F: double a disk's idle timeout when it thrashes.

    A disk that spins up more than ``thrash_limit`` times within
    ``thrash_window`` seconds gets its idle timeout doubled (capped at
    ``max_timeout``), trading a little idle power for far fewer
    mechanical spin cycles.
    """

    idle_timeout: SimSeconds = SimSeconds(300.0)
    thrash_limit: int = 3
    thrash_window: SimSeconds = SimSeconds(3600.0)
    max_timeout: SimSeconds = SimSeconds(4 * 3600.0)
    _timeouts: Dict[str, SimSeconds] = field(default_factory=dict)
    _wakeups: Dict[str, List[SimSeconds]] = field(default_factory=dict)

    def timeout_for(self, disk_id: str) -> SimSeconds:
        return self._timeouts.get(disk_id, self.idle_timeout)

    def on_spin_up(self, disk_id: str, now: SimSeconds) -> None:
        events = self._wakeups.setdefault(disk_id, [])
        events.append(now)
        cutoff = now - self.thrash_window
        events[:] = [t for t in events if t >= cutoff]
        if len(events) > self.thrash_limit:
            current = self.timeout_for(disk_id)
            self._timeouts[disk_id] = SimSeconds(
                min(current * 2.0, self.max_timeout)
            )
            events.clear()


def run_policy(
    sim: Simulator,
    disks: Dict[str, SimulatedDisk],
    policy: SpinDownPolicy,
    check_interval: SimSeconds = SimSeconds(10.0),
) -> None:
    """Drive a spin-down policy over ``disks`` on the deferred fast path.

    Each check is a raw :meth:`Simulator.defer` callback that
    reschedules itself — no Timeout/Event allocation per interval, so
    a fleet of policy loops costs the kernel nothing between checks.
    A check spins down every IDLE disk that has been IDLE for the
    policy's timeout: the idle clock (:attr:`SimulatedDisk.idle_since`)
    starts when the disk last turned IDLE, whether an I/O or a spin-up
    brought it there.  Wake-ups reach ``policy.on_spin_up`` through
    per-disk spin-up listeners at the *exact* sim time of the surge
    (not quantised to the next check boundary).  The loop runs for the
    life of the simulation.
    """

    def on_spin_up(disk_id: str, now: float, blame: TraceScope) -> None:
        policy.on_spin_up(disk_id, SimSeconds(now))

    for disk in disks.values():
        disk.add_spin_up_listener(on_spin_up)

    def check() -> None:
        for disk_id, disk in disks.items():
            if disk.power_state is not DiskPowerState.IDLE:
                continue
            if sim.now - disk.idle_since >= policy.timeout_for(disk_id):
                disk.spin_down()
        sim.defer(check_interval, check)

    sim.defer(check_interval, check)
