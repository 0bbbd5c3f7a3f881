"""The gateway: admission, fair queuing, power-budgeted dispatch.

One :class:`Gateway` fronts a set of mounted UStore spaces (one per
backing disk).  Requests arrive via :meth:`Gateway.submit_op` — admission
control and SLO tagging happen synchronously at the door — and are
drained by dispatch passes.  Each wake defers one pass, which consults
the scheduler strategy (:mod:`repro.gateway.scheduler`) and the power
accountant and steps each batch it grants in place (``step_in_place``):
the gateway runs no process of its own.

I/O goes through the existing ClientLib mount path
(:class:`~repro.cluster.clientlib.MountedSpace`), so endpoint failures
surface exactly as they do for any UStore client: a ``SessionError``
inside the space triggers a transparent remount and the I/O retries
against the failed-over host.  The gateway issues each queued request
to the space exactly once (``attempts`` counts gateway-level issues,
not ClientLib-internal retries); a request is marked failed only when
the ClientLib exhausts its remount budget.

Spin-*down* is delegated to :mod:`repro.power.policy` — the gateway
runs a ``run_policy`` loop over its disks — plus a reclaim step: when
queued work cannot be dispatched within the wattage budget, the pass
spins down the least-recently-used idle disk to free watts instead of
waiting out the policy's idle timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.cluster.clientlib import MountedSpace, StorageUnavailableError
from repro.cluster.namespace import parse_space_id
from repro.disk.device import SimulatedDisk
from repro.disk.states import DiskPowerState
from repro.obs import DEFAULT_DEPTH_BUCKETS
from repro.power.policy import FixedTimeoutPolicy, run_policy
from repro.sim import Event, Simulator, step_in_place
from repro.units import SimSeconds, Watts

from repro.gateway.api import (
    GatewayOp,
    resolve_op,
)
from repro.gateway.queues import WeightedFairQueue
from repro.gateway.request import GatewayError, GatewayRequest, RequestState
from repro.gateway.scheduler import (
    DiskPass,
    HostLookup,
    PowerAccountant,
    coalesce_batch,
    make_scheduler,
)
from repro.gateway.tenants import TenantSpec

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.cluster.deployment import Deployment

__all__ = [
    "Gateway",
    "GatewayConfig",
    "GatewayObject",
    "GatewayStats",
    "TenantStats",
    "mount_gateway_spaces",
    "percentile",
]

#: Poll interval of a pass budget-blocked with nothing in flight.
POLL_INTERVAL = SimSeconds(1.0)
#: Check interval of the fixed-timeout spin-down policy loop.
POLICY_CHECK_INTERVAL = SimSeconds(2.0)
#: Idle timeout handed to the spin-down policy loop.
SPIN_DOWN_IDLE_SECONDS = SimSeconds(12.0)


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway tuning knobs; defaults model a 3-disk power envelope."""

    #: Wattage ceiling over all gateway-managed disks (24 W ≈ three
    #: USB-profile disks at active draw).
    power_budget_watts: Watts = Watts(24.0)
    scheduler: str = "batch"
    #: Sub-block coalescing window: reads in the same space whose
    #: extents fall within this many bytes of each other share one
    #: disk pass (0 merges only overlapping/adjacent extents).  The
    #: shardstore sets this to the shard capacity so every same-shard
    #: retrieval in a batch rides one sequential pass.
    coalesce_gap_bytes: int = 0
    #: Always-spinning (hot-tier) disks: exempt from the spin-down
    #: policy loop and from budget reclaim.  They still draw watts in
    #: the power accountant, so the hot tier lives *inside* the same
    #: power envelope as cold work.
    pinned_disks: Tuple[str, ...] = ()


@dataclass(frozen=True)
class GatewayObject:
    """One addressable storage region behind the gateway."""

    space_id: str
    disk_id: str
    region_bytes: int


@dataclass
class TenantStats:
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    slo_misses: int = 0
    latencies: List[float] = field(default_factory=list)


@dataclass
class GatewayStats:
    """Exact (non-bucketed) request accounting for experiment anchors."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    slo_misses: int = 0
    batches: int = 0
    reclaim_spin_downs: int = 0
    #: Physical media operations issued (after sub-block coalescing).
    disk_passes: int = 0
    #: Read requests served as passengers of another request's pass.
    coalesced_reads: int = 0
    latencies: List[float] = field(default_factory=list)
    per_tenant: Dict[str, TenantStats] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil((q / 100.0) * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Gateway:
    """Multi-tenant request tier over a set of mounted spaces."""

    def __init__(
        self,
        sim: Simulator,
        tenants: Sequence[TenantSpec],
        config: GatewayConfig = GatewayConfig(),
    ) -> None:
        if not tenants:
            raise ValueError("gateway needs at least one tenant")
        self.sim = sim
        self.config = config
        self._tenants: Dict[str, TenantSpec] = {}
        for spec in tenants:
            if spec.name in self._tenants:
                raise ValueError(f"duplicate tenant {spec.name!r}")
            self._tenants[spec.name] = spec
        self.queue = WeightedFairQueue(self._tenants)
        self.stats = GatewayStats()
        for name in self._tenants:
            self.stats.per_tenant[name] = TenantStats()
        self._scheduler = make_scheduler(config.scheduler)
        self._objects: List[GatewayObject] = []
        self._spaces: Dict[str, MountedSpace] = {}
        self._disk_of_space: Dict[str, str] = {}
        self._disks: Dict[str, SimulatedDisk] = {}
        self._host_of: HostLookup = lambda disk_id: None
        self._power: Optional[PowerAccountant] = None
        self._in_flight: Dict[str, List[GatewayRequest]] = {}
        self._pass_due = False  # a dispatch pass is deferred, not yet run
        self._passes = 0  # dispatch passes run so far
        self._next_request_id = 0
        self._started = False
        # Request tracing: fetched once; per-disk marks of when the
        # power budget first refused a spin-up, so dispatch can split
        # each request's wait into queue_wait vs power_wait.
        self._tracer = sim.tracer
        self._power_blocked_since: Dict[str, float] = {}
        self._baseline_spin_ups = 0
        self._baseline_energy = 0.0
        # Obs instruments, fetched once (no-ops on the null registry);
        # the request counts are the stats' own.
        metrics = sim.metrics
        metrics.publish("gateway", self.stats)
        self._m_latency = metrics.histogram("gateway.latency_seconds")
        self._m_queue_wait = metrics.histogram("gateway.queue_wait_seconds")
        self._m_batch_size = metrics.histogram(
            "gateway.batch_size", DEFAULT_DEPTH_BUCKETS
        )
        self._m_depth_total = metrics.gauge("gateway.queue_depth.total")
        self._m_depth = {
            name: metrics.gauge(f"gateway.queue_depth.{name}")
            for name in self._tenants
        }
        self._m_tenant_latency = {
            name: metrics.histogram(f"gateway.latency_seconds.{name}")
            for name in self._tenants
        }

    # -- configuration ----------------------------------------------------

    def tenant(self, name: str) -> TenantSpec:
        spec = self._tenants.get(name)
        if spec is None:
            raise GatewayError(f"unknown tenant {name!r}")
        return spec

    def tenant_specs(self) -> List[TenantSpec]:
        return list(self._tenants.values())

    def objects(self) -> List[GatewayObject]:
        return self._objects

    @property
    def power_accountant(self) -> PowerAccountant:
        """The attached budget bookkeeper (background tiers consult it)."""
        if self._power is None:
            raise GatewayError("attach() the gateway before reading power state")
        return self._power

    def attach(
        self,
        objects: Sequence[GatewayObject],
        spaces: Mapping[str, MountedSpace],
        disks: Mapping[str, SimulatedDisk],
        host_of: Optional[HostLookup] = None,
    ) -> None:
        """Bind the gateway to its mounted spaces and backing disks."""
        if self._started:
            raise GatewayError("cannot attach after start()")
        if not objects:
            raise GatewayError("gateway needs at least one object")
        self._objects = sorted(objects, key=lambda o: o.space_id)
        for obj in self._objects:
            if obj.space_id not in spaces:
                raise GatewayError(f"object {obj.space_id!r} has no mounted space")
            if obj.disk_id not in disks:
                raise GatewayError(f"object {obj.space_id!r} names unknown disk")
            self._spaces[obj.space_id] = spaces[obj.space_id]
            self._disk_of_space[obj.space_id] = obj.disk_id
            self._disks[obj.disk_id] = disks[obj.disk_id]
        if host_of is not None:
            self._host_of = host_of
        for disk_id in self.config.pinned_disks:
            if disk_id not in self._disks:
                raise GatewayError(f"pinned disk {disk_id!r} is not attached")
        first = self._disks[sorted(self._disks)[0]]
        watts = Watts(first.default_power_profile().active)  # charged per disk
        self._power = PowerAccountant(self._disks, self.config.power_budget_watts, watts)

    def start(self) -> None:
        """Snapshot power baselines, start the spin-down policy, wake a pass."""
        if self._power is None:
            raise GatewayError("attach() the gateway before start()")
        if self._started:
            raise GatewayError("gateway already started")
        self._started = True
        self._baseline_spin_ups = self._total_spin_ups()
        self._baseline_energy = self._total_energy()
        pinned = set(self.config.pinned_disks)
        policy_disks = {
            disk_id: disk
            for disk_id, disk in self._disks.items()
            if disk_id not in pinned
        }
        if policy_disks:
            run_policy(
                self.sim,
                policy_disks,
                FixedTimeoutPolicy(idle_timeout=SPIN_DOWN_IDLE_SECONDS),
                check_interval=POLICY_CHECK_INTERVAL,
            )
        self._wake()

    # -- admission --------------------------------------------------------

    def submit_op(self, op: GatewayOp) -> GatewayRequest:
        """Admit one :class:`ReadObject`, :class:`WriteObject` or
        :class:`ReadRange` (or raise a typed admission error)."""
        op_space, op_offset, op_size, op_is_read = resolve_op(op)
        disk_id = self._disk_of_space.get(op_space)
        if disk_id is None:
            raise GatewayError(f"unknown space {op_space!r}")
        op_tenant = op.tenant
        self.stats.submitted += 1
        spec = self._tenants.get(op_tenant)
        now = self.sim.now
        request = GatewayRequest(
            request_id=self._next_request_id,
            tenant=op_tenant,
            space_id=op_space,
            disk_id=disk_id,
            offset=op_offset,
            size=op_size,
            is_read=op_is_read,
            arrival=now,
            deadline=now + (spec.slo_seconds if spec is not None else 0.0),
        )
        if self._tracer.enabled:
            request.trace = self._tracer.start(
                "gateway.request",
                kind="request",
                tenant=op_tenant,
                request_id=request.request_id,
                space_id=op_space,
                disk_id=disk_id,
                size=op_size,
                is_read=op_is_read,
                deadline=request.deadline,
                object_id=op.ref.object_id,
            )
        try:
            self.queue.push(request)
        except GatewayError as exc:
            self.stats.rejected += 1
            if spec is not None:
                self.stats.per_tenant[op_tenant].rejected += 1
            request.trace.event("admission.rejected", reason=str(exc))
            request.trace.finish("rejected")
            raise
        self._next_request_id += 1
        self.stats.admitted += 1
        self._update_depth_gauges()
        self._wake()
        return request

    # -- dispatch loop ----------------------------------------------------

    def outstanding(self) -> int:
        """Requests admitted but not yet completed or failed."""
        in_flight = sum(len(batch) for batch in self._in_flight.values())
        return self.queue.total_depth() + in_flight

    def drained(self) -> bool:
        return self.outstanding() == 0

    def _wake(self) -> None:
        """Defer one dispatch pass to this instant, unless one is due."""
        if self._started and not self._pass_due:
            self._pass_due = True
            self.sim.defer(0.0, self._dispatch)

    def _poll(self, armed: int) -> None:
        """Deferred poll: wake the gateway iff no pass ran since pass ``armed``."""
        if self._passes == armed:
            self._wake()

    def _dispatch(self) -> None:
        """One dispatch pass: grant what the budget allows, else make room."""
        self._pass_due = False
        self._passes += 1
        while not self._dispatch_ready() and self.queue.total_depth() > 0:
            if self._reclaim_idle():
                continue  # freed watts; try to dispatch again now
            if not self._in_flight:
                # Budget-blocked with nothing running: poll so the
                # spin-down policy's progress is eventually seen.
                self.sim.defer(POLL_INTERVAL, partial(self._poll, self._passes))
            return

    def _dispatch_ready(self) -> bool:
        """Grant batches while the budget allows; True if any started."""
        power = self._power
        assert power is not None  # start() guarantees attach() ran
        pending = [
            entry
            for entry in self.queue.pending_by_disk()
            if entry.disk_id not in self._in_flight
        ]
        if not pending:
            return False
        busy_hosts: List[str] = []
        for disk_id in sorted(self._in_flight):
            host = self._host_of(disk_id)
            if host is not None:
                busy_hosts.append(host)
        dispatched = False
        tracing = self._tracer.enabled
        for entry in self._scheduler.order(pending, busy_hosts, self._host_of):
            if not power.can_afford(entry.disk_id):
                if tracing:
                    # First refusal marks when the budget became the
                    # binding constraint for this disk's queued work.
                    self._power_blocked_since.setdefault(
                        entry.disk_id, self.sim.now
                    )
                if self._scheduler.head_of_line:
                    break  # the naive baseline stalls behind its head
                continue  # already-spinning disks may still be free
            batch = self.queue.take_for_disk(
                entry.disk_id, self._scheduler.batch_limit(entry)
            )
            if not batch:
                continue
            power.grant(entry.disk_id)
            blocked_since = self._power_blocked_since.pop(entry.disk_id, None)
            self._in_flight[entry.disk_id] = batch
            now = self.sim.now
            for request in batch:
                request.state = RequestState.DISPATCHED
                request.dispatched_at = now
                request.attempts += 1
                self._m_queue_wait.observe(now - request.arrival)
                if tracing:
                    # queue_wait runs from arrival until the budget
                    # became binding (or until now if it never was);
                    # the rest of the wait is power_wait.
                    if blocked_since is None:
                        queue_end = now
                    else:
                        queue_end = min(max(request.arrival, blocked_since), now)
                    request.trace.phase_at("queue_wait", queue_end)
                    request.trace.phase("power_wait")
            self.stats.batches += 1
            self._m_batch_size.observe(float(len(batch)))
            done = partial(self._served, entry.disk_id)
            step_in_place(self.sim, self._serve_batch(batch), done)
            dispatched = True
        if dispatched:
            self._update_depth_gauges()
        return dispatched

    def _serve_batch(self, batch: List[GatewayRequest]) -> Generator[Event, None, None]:
        for disk_pass in coalesce_batch(batch, self.config.coalesce_gap_bytes):
            yield from self._serve_pass(disk_pass)

    def _served(self, disk_id: str, _result: None, error: Optional[BaseException]) -> None:
        """A batch ended: free its disk and watts, and wake the next pass."""
        self._in_flight.pop(disk_id, None)
        self.power_accountant.release(disk_id)
        self._wake()
        if error is not None:
            raise error  # reaches the kernel, as an unwaited process's would

    def _serve_pass(self, disk_pass: DiskPass) -> Generator[Event, None, None]:
        """Issue one physical media operation; complete every member.

        Whatever its member count, a pass is one plain read or write of
        its envelope ``[offset, offset + size)`` over ``iscsi.io``: a
        write pass has one member, and a read pass covers every
        member's extent in one sequential media pass.  The lead
        (first-sorted) request's trace rides the wire; passenger
        requests get their post-queue time attributed to ``transfer``
        once the shared pass lands.
        """
        space = self._spaces[disk_pass.space_id]
        members = disk_pass.requests
        lead = members[0]
        self.stats.disk_passes += 1
        for request in members:
            # Time spent behind earlier passes of the same batch.
            request.trace.phase("batch_wait")
        self.stats.coalesced_reads += len(members) - 1
        io = space.read if disk_pass.is_read else space.write
        try:
            yield from io(disk_pass.offset, disk_pass.size, trace=lead.trace)
            for request in members[1:]:
                request.trace.event(
                    "gateway.coalesced",
                    lead_request_id=lead.request_id,
                    pass_offset=disk_pass.offset,
                    pass_size=disk_pass.size,
                )
                request.trace.phase("transfer")
        except StorageUnavailableError as exc:
            for request in members:
                self._finish(request, failure=str(exc))
        else:
            for request in members:
                self._finish(request, failure=None)

    def _finish(self, request: GatewayRequest, failure: Optional[str]) -> None:
        request.completed_at = self.sim.now
        tenant = self.stats.per_tenant.get(request.tenant)
        if failure is not None:
            request.state = RequestState.FAILED
            request.failure = failure
            self.stats.failed += 1
            if tenant is not None:
                tenant.failed += 1
            request.trace.annotate(slo_missed=request.missed_slo())
            request.trace.finish("failed")
            self._run_completion(request)
            return
        request.state = RequestState.COMPLETED
        latency = request.completed_at - request.arrival
        self.stats.completed += 1
        self.stats.latencies.append(latency)
        self._m_latency.observe(latency)
        if tenant is not None:
            tenant.completed += 1
            tenant.latencies.append(latency)
            self._m_tenant_latency[request.tenant].observe(latency)
        missed = request.missed_slo()
        if missed:
            self.stats.slo_misses += 1
            if tenant is not None:
                tenant.slo_misses += 1
        request.trace.annotate(slo_missed=missed)
        request.trace.finish("ok")
        self._run_completion(request)

    def _run_completion(self, request: GatewayRequest) -> None:
        """Fire the request's completion hook exactly once."""
        hook = request.on_complete
        if hook is None:
            return
        request.on_complete = None
        hook(request)

    def _reclaim_idle(self) -> bool:
        """Spin down one idle disk to free budget for queued work.

        Prefers idle disks with no queued requests (spinning them down
        costs nothing), then least-recently-used among the rest — the
        classic trade of one extra spin cycle for forward progress.
        """
        queued_disks = {entry.disk_id for entry in self.queue.pending_by_disk()}
        pinned = set(self.config.pinned_disks)
        candidates: List[Tuple[int, float, str]] = []
        for disk_id in sorted(self._disks):
            if disk_id in self._in_flight or disk_id in pinned:
                continue
            power = self._power
            if power is not None and power.granted(disk_id):
                continue
            disk = self._disks[disk_id]
            if disk.power_state is not DiskPowerState.IDLE:
                continue
            candidates.append(
                (1 if disk_id in queued_disks else 0, disk.idle_since, disk_id)
            )
        if not candidates:
            return False
        candidates.sort()
        _, _, victim = candidates[0]
        self._disks[victim].spin_down()
        self.stats.reclaim_spin_downs += 1
        return True

    def _update_depth_gauges(self) -> None:
        depths = self.queue.depths()
        for name in self._m_depth:
            self._m_depth[name].set(float(depths.get(name, 0)))
        self._m_depth_total.set(float(sum(depths.values())))

    # -- accounting -------------------------------------------------------

    def _total_spin_ups(self) -> int:
        return sum(
            self._disks[disk_id].states.spin_up_count
            for disk_id in sorted(self._disks)
        )

    def _total_energy(self) -> float:
        return sum(
            self._disks[disk_id].energy_joules() for disk_id in sorted(self._disks)
        )

    def spin_ups(self) -> int:
        """Disk spin-ups since :meth:`start` across gateway disks."""
        return self._total_spin_ups() - self._baseline_spin_ups

    def energy_joules(self) -> float:
        """Disk energy since :meth:`start` across gateway disks."""
        return self._total_energy() - self._baseline_energy

    def summary(self) -> Dict[str, object]:
        """Exact request/power accounting for experiments and benches."""
        stats = self.stats
        per_tenant: Dict[str, Dict[str, float]] = {}
        for name in stats.per_tenant:
            tenant = stats.per_tenant[name]
            per_tenant[name] = {
                "completed": float(tenant.completed),
                "failed": float(tenant.failed),
                "rejected": float(tenant.rejected),
                "slo_misses": float(tenant.slo_misses),
                "latency_p50": percentile(tenant.latencies, 50.0),
                "latency_p99": percentile(tenant.latencies, 99.0),
            }
        mean = (
            sum(stats.latencies) / len(stats.latencies) if stats.latencies else 0.0
        )
        return {
            "scheduler": self._scheduler.name,
            "power_budget_watts": self.config.power_budget_watts,
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "rejected": stats.rejected,
            "completed": stats.completed,
            "failed": stats.failed,
            "slo_misses": stats.slo_misses,
            "batches": stats.batches,
            "disk_passes": stats.disk_passes,
            "coalesced_reads": stats.coalesced_reads,
            "reclaim_spin_downs": stats.reclaim_spin_downs,
            "latency_mean": mean,
            "latency_p50": percentile(stats.latencies, 50.0),
            "latency_p99": percentile(stats.latencies, 99.0),
            "spin_ups": self.spin_ups(),
            "energy_joules": self.energy_joules(),
            "per_tenant": per_tenant,
        }


def mount_gateway_spaces(
    deployment: "Deployment",
    space_bytes: int,
    client_name: str = "gateway0",
    service: str = "gateway",
    max_spaces: Optional[int] = None,
) -> Tuple[List[GatewayObject], Dict[str, MountedSpace]]:
    """Allocate and mount one space per distinct disk for a gateway.

    Runs the allocation conversation synchronously on the deployment's
    simulator (call after :meth:`Deployment.settle`).  Returns
    ``(objects, spaces)`` ready for :meth:`Gateway.attach`; allocation
    uses ``exclude_disks`` so every object lands on its own spindle.
    """
    client = deployment.new_client(client_name, service=service)
    limit = len(deployment.disks) if max_spaces is None else max_spaces
    objects: List[GatewayObject] = []
    spaces: Dict[str, MountedSpace] = {}

    def setup() -> Generator[Event, None, None]:
        used_disks: List[str] = []
        for _ in range(limit):
            info = yield from client.allocate(
                space_bytes, exclude_disks=list(used_disks)
            )
            space = yield from client.mount(info["space_id"])
            _, disk_id, _ = parse_space_id(info["space_id"])
            used_disks.append(disk_id)
            objects.append(
                GatewayObject(
                    space_id=info["space_id"],
                    disk_id=disk_id,
                    region_bytes=space_bytes,
                )
            )
            spaces[info["space_id"]] = space

    deployment.sim.run_until_event(deployment.sim.process(setup()))
    return objects, spaces
