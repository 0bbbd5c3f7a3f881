"""A simulated hard disk serving I/O in the discrete-event world.

:class:`SimulatedDisk` combines the analytic service-time model with a
power-state machine and a FIFO command queue (queue depth 1 at the
media, as in the prototype's Iometer runs).  It also keeps per-state
residency times so the power-accounting layer can integrate energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.disk.model import DiskModel
from repro.disk.specs import (
    ConnectionType,
    DiskPowerProfile,
    DiskSpec,
    DT01ACA300,
    TOSHIBA_POWER_SATA,
    TOSHIBA_POWER_USB,
)
from repro.disk.states import DiskPowerState, DiskStateError, SpinStateMachine
from repro.obs import DEFAULT_DEPTH_BUCKETS
from repro.obs.trace import NULL_SCOPE, TraceScope
from repro.sim import Event, Resource, Simulator
from repro.workload.specs import AccessPattern, WorkloadSpec

__all__ = [
    "DiskOfflineError",
    "IoRequest",
    "SimulatedDisk",
    "SpinUpListener",
    "StateListener",
    "state_watts",
]

#: ``(disk_id, sim_now, blame_scope)`` — fired synchronously inside
#: :meth:`SimulatedDisk.spin_up`, so listeners (spin-down policies, the
#: energy ledger) see the exact sim time and owning trace of the surge.
SpinUpListener = Callable[[str, float, TraceScope], None]

#: ``(tenant, trace_id)`` ownership stamp for a busy/spin-up interval.
OwnerStamp = Optional[Tuple[Optional[str], int]]

#: ``(disk_id, state, span, owner)`` of the power-state interval that just
#: ended, fired from every transition.  Draw is constant within an
#: interval, so listeners (the energy ledger) integrate it exactly.
StateListener = Callable[[str, DiskPowerState, float, OwnerStamp], None]


def state_watts(profile: DiskPowerProfile, state: DiskPowerState) -> float:
    """DC watts a disk draws in ``state`` under ``profile``."""
    if state is DiskPowerState.POWERED_OFF:
        return 0.0
    if state is DiskPowerState.SPUN_DOWN:
        return profile.spun_down
    if state is DiskPowerState.IDLE:
        return profile.idle
    # ACTIVE, and SPINNING_UP: spin-up draws peak current, modelled as
    # active draw.
    return profile.active


class DiskOfflineError(Exception):
    """I/O issued to a powered-off or failed disk."""


@dataclass(frozen=True)
class IoRequest:
    """One block I/O against a disk."""

    offset: int
    size: int
    is_read: bool
    sequential_hint: bool = True

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size <= 0:
            raise ValueError(f"invalid I/O geometry offset={self.offset} size={self.size}")


class SimulatedDisk:
    """One disk: service model + spin states + command queue."""

    def __init__(
        self,
        sim: Simulator,
        disk_id: str,
        spec: DiskSpec = DT01ACA300,
        connection: ConnectionType = ConnectionType.HUB_AND_SWITCH,
        initial_state: DiskPowerState = DiskPowerState.IDLE,
    ):
        self.sim = sim
        self.disk_id = disk_id
        self.spec = spec
        self.connection = connection
        self.model = DiskModel(disk=spec, connection=connection)
        self.states = SpinStateMachine(initial_state)
        self.failed = False
        self._queue = Resource(sim, name=f"disk-queue:{disk_id}")
        self._last_offset_end: Optional[int] = None
        self._last_is_read: Optional[bool] = None
        self.completed_ios = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # Per-state residency bookkeeping for energy accounting.
        self._state_entered = sim.now
        self._residency: Dict[DiskPowerState, float] = {s: 0.0 for s in DiskPowerState}
        # Ownership stamps for the energy ledger: who the current ACTIVE
        # (busy) interval and in-flight spin-up belong to.  None when the
        # work has no live owning trace (system I/O, stale scopes).
        self.busy_owner: OwnerStamp = None
        self.spinup_owner: OwnerStamp = None
        self._spin_up_done: Optional[Event] = None  # set while SPINNING_UP
        self._spin_listeners: List[SpinUpListener] = []
        self._state_listeners: List[StateListener] = []
        # Obs instruments, fetched once; aggregated across all disks of a
        # simulator so the dump stays small at deployment scale.
        metrics = sim.metrics
        metrics.publish("disk", self, ("completed_ios", "bytes_read", "bytes_written"))
        metrics.publish("disk", self.states, ("spin_up_count",))
        self._m_queue_depth = metrics.histogram(
            "disk.queue_depth", DEFAULT_DEPTH_BUCKETS
        )
        self._m_service = metrics.histogram("disk.service_seconds")

    # -- power-state handling --------------------------------------------

    @property
    def power_state(self) -> DiskPowerState:
        return self.states.state

    def _enter_state(self, new_state: DiskPowerState) -> None:
        state, span, owner = self.open_interval()
        self.states.transition(new_state)
        self._residency[state] += span
        self._state_entered = self.sim.now
        for listener in self._state_listeners:
            listener(self.disk_id, state, span, owner)

    def open_interval(self) -> Tuple[DiskPowerState, float, OwnerStamp]:
        """The current power-state interval: state, span so far, owner.

        The owner is :attr:`busy_owner` for ACTIVE, :attr:`spinup_owner`
        for SPINNING_UP and ``None`` otherwise; both stamps stay set
        until their interval has closed.
        """
        state = self.states.state
        if state is DiskPowerState.ACTIVE:
            owner = self.busy_owner
        elif state is DiskPowerState.SPINNING_UP:
            owner = self.spinup_owner
        else:
            owner = None
        return state, self.sim.now - self._state_entered, owner

    def residency(self, state: DiskPowerState) -> float:
        """Total time spent in ``state`` so far (including current)."""
        total = self._residency[state]
        if self.states.state is state:
            total += self.sim.now - self._state_entered
        return total

    def power_draw(self, profile: DiskPowerProfile) -> float:
        """Instantaneous watts for a given power profile."""
        return state_watts(profile, self.states.state)

    def default_power_profile(self) -> DiskPowerProfile:
        if self.connection is ConnectionType.SATA:
            return TOSHIBA_POWER_SATA
        return TOSHIBA_POWER_USB

    def energy_joules(self, profile: Optional[DiskPowerProfile] = None) -> float:
        """Energy integrated over state residencies so far."""
        prof = profile or self.default_power_profile()
        return sum(
            self.residency(state) * state_watts(prof, state)
            for state in DiskPowerState
        )

    def spin_down(self) -> None:
        if self.states.state is DiskPowerState.IDLE:
            self._enter_state(DiskPowerState.SPUN_DOWN)

    def power_off(self) -> None:
        if self.states.state in (DiskPowerState.IDLE, DiskPowerState.SPUN_DOWN):
            self._enter_state(DiskPowerState.POWERED_OFF)

    def power_on(self) -> None:
        if self.states.state is DiskPowerState.POWERED_OFF:
            self._enter_state(DiskPowerState.SPUN_DOWN)

    def add_spin_up_listener(self, listener: SpinUpListener) -> None:
        """Notify ``listener(disk_id, now, blame)`` on every spin-up start."""
        self._spin_listeners.append(listener)

    def add_state_listener(self, listener: StateListener) -> None:
        """Notify ``listener(disk_id, state, span, owner)`` as each
        power-state interval closes."""
        self._state_listeners.append(listener)

    def spin_up(self, blame: TraceScope = NULL_SCOPE) -> Event:
        """Begin spinning up; the returned event fires when ready.

        ``blame`` names the request whose arrival forced the surge; it
        stamps :attr:`spinup_owner` for the energy ledger and rides the
        spin-up listener callbacks (exact sim time, owning trace).  A
        call during a spin-up joins it: it gets that spin-up's event,
        and the owner and listeners stay those of the first call.
        """
        if self.states.state is DiskPowerState.POWERED_OFF:
            raise DiskStateError("power the disk on before spinning up")
        if self._spin_up_done is not None:
            return self._spin_up_done
        done = self.sim.event()
        if self.states.is_spinning:
            done.succeed()
            return done
        self._enter_state(DiskPowerState.SPINNING_UP)
        self._spin_up_done = done
        self.spinup_owner = blame.owner()
        for listener in self._spin_listeners:
            listener(self.disk_id, self.sim.now, blame)

        def finish() -> None:
            self._enter_state(DiskPowerState.IDLE)
            self.spinup_owner = None
            self._spin_up_done = None
            done.succeed()

        self.sim.defer(self.spec.spin_up_time, finish)
        return done

    def ready_at(self) -> Optional[float]:
        """When an I/O submitted now can reach the media, if it must
        wait for a spin-up; ``None`` if it need not wait.

        That is the end of the spin-up in progress, or ``now`` plus the
        spin-up time for a spun-down disk, whose queued I/O starts one.
        A spinning disk answers ``None``, and so does a powered-off
        one, on which the I/O fails at once.
        """
        state = self.states.state
        if state is DiskPowerState.SPINNING_UP:
            return self._state_entered + self.spec.spin_up_time
        if state is DiskPowerState.SPUN_DOWN:
            return self.sim.now + self.spec.spin_up_time
        return None

    # -- failure ----------------------------------------------------------

    def fail(self) -> None:
        self.failed = True

    def repair(self) -> None:
        self.failed = False

    # -- I/O ----------------------------------------------------------------

    def _spec_for(self, request: IoRequest) -> WorkloadSpec:
        sequential = request.sequential_hint and (
            self._last_offset_end is None or request.offset == self._last_offset_end
        )
        return WorkloadSpec(
            transfer_size=request.size,
            pattern=AccessPattern.SEQUENTIAL if sequential else AccessPattern.RANDOM,
            read_fraction=1.0 if request.is_read else 0.0,
        )

    def submit(self, request: IoRequest, scope: TraceScope = NULL_SCOPE) -> "Event":
        """Submit one I/O; returns a process event with the service time."""
        return self.sim.process(self.serve(request, scope))

    def serve(
        self, request: IoRequest, scope: TraceScope = NULL_SCOPE
    ) -> Generator[Event, None, float]:
        """Submit one I/O to run inside the caller's process: ``yield
        from`` the result for the service time.  Costs no process events."""
        # Depth seen by this request: in-service holders plus waiters.
        self._m_queue_depth.observe(self._queue.users + self._queue.queue_length)
        return self._serve(request, scope)

    def _serve(
        self, request: IoRequest, scope: TraceScope = NULL_SCOPE
    ) -> Generator[Event, None, float]:
        # Everything between the initiator's send and this point is
        # request travel + endpoint dispatch.
        scope.phase("network")
        if self.failed:
            raise DiskOfflineError(f"{self.disk_id}: disk failed")
        if self.states.state is DiskPowerState.POWERED_OFF:
            raise DiskOfflineError(f"{self.disk_id}: disk powered off")
        yield self._queue.request()
        scope.phase("disk_queue")
        try:
            if self.failed:
                raise DiskOfflineError(f"{self.disk_id}: disk failed")
            if not self.states.is_spinning:
                # Starts the spin-up, or joins someone else's.
                yield self.spin_up(blame=scope)
                scope.phase("spinup")
            spec = self._spec_for(request)
            self.busy_owner = scope.owner()
            was_idle = self.states.state is DiskPowerState.IDLE
            if was_idle:
                self._enter_state(DiskPowerState.ACTIVE)
            service = self.model.service_time(spec)
            # Direction turnaround: charge the calibrated mixed-workload
            # penalty whenever consecutive commands change direction, so
            # alternating read/write streams reproduce the Table II
            # 50%-mix columns.
            turnaround = 0.0
            if self._last_is_read is not None and self._last_is_read != request.is_read:
                profile = self.model.profile
                if spec.is_sequential:
                    turnaround = (
                        profile.mix_fixed
                        + profile.mix_transfer_factor
                        * (request.size / self.spec.media_rate)
                    )
                else:
                    turnaround = profile.rand_mix_fixed
                service += turnaround
            self._last_is_read = request.is_read
            service_started = self.sim.now
            yield self.sim.timeout(service)
            # Leave ACTIVE before the failure check below, so a disk that
            # fails mid-transfer is not billed active watts (and pinned
            # spinning) until its next I/O.
            if self.states.state is DiskPowerState.ACTIVE:
                self._enter_state(DiskPowerState.IDLE)
            if scope.enabled:
                # Decompose the single already-elapsed service interval
                # retroactively (no extra sim events, so traced and
                # untraced runs replay identically): positioning, then
                # protocol/fabric/turnaround throttle, then the media
                # transfer as the exact residual.
                seek, throttle = self.model.service_components(
                    spec, request.is_read
                )
                throttle += turnaround
                scope.phase_at("seek_rotation", service_started + seek)
                scope.phase_at(
                    "bandwidth_throttle", service_started + seek + throttle
                )
                scope.phase("transfer")
            if self.failed:
                raise DiskOfflineError(f"{self.disk_id}: disk failed mid-transfer")
            self._last_offset_end = request.offset + request.size
            self.completed_ios += 1
            self._m_service.observe(service)
            if request.is_read:
                self.bytes_read += request.size
            else:
                self.bytes_written += request.size
            return service
        finally:
            self.busy_owner = None
            self._queue.release()

    @property
    def idle_since(self) -> float:
        """When the disk entered its current power state: for an IDLE
        disk, the end of its last I/O or of the spin-up that woke it."""
        return self._state_entered
