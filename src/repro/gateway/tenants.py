"""Tenant specifications and the open-loop traffic generator.

The generator is *open loop*: arrivals are drawn from a per-tenant
Poisson process whose rate is ``users × rate_per_user``, so a tenant
modelling two million archival users costs exactly one simulation
process, not two million.  Closed-loop drivers (``repro.workload
.iometer``) throttle themselves to the storage's service rate and hide
saturation; an open-loop front door keeps offering load while queues
grow, which is how admission control and SLO misses become visible.

Arrivals can also be replayed from an explicit trace
(:class:`TraceArrival` lists), for tests and for feeding recorded
workloads through the same admission path.

All randomness flows through named :class:`~repro.sim.rng.RngRegistry`
streams (``gateway.arrivals.<tenant>``), one per tenant, so adding a
tenant never perturbs another tenant's arrival sequence.

Arrival draws are generated in bulk: :meth:`OpenLoopTrafficGenerator
._draw_arrivals` precomputes :data:`ARRIVAL_BATCH` arrivals per pass in
one tight loop with locally bound RNG methods and a precomputed size-mix
total, instead of paying the attribute-lookup and ``gateway.objects()``
overhead once per event.  The batch makes **exactly the same RNG calls
in exactly the same order** as a per-arrival loop would (gap, object
index, size draw, offset, read/write draw), so a fixed seed yields a
bit-identical arrival sequence — pinned by
``tests/test_tenant_arrivals.py`` against an unbatched reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    List,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.sim import Event, RngRegistry, Simulator
from repro.workload.specs import MB

from repro.gateway.api import ObjectRef, ReadObject, WriteObject
from repro.gateway.request import AdmissionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.gateway.gateway import Gateway


class _ArrivalStream(Protocol):
    """The slice of a named RNG stream the bulk arrival draw uses."""

    def expovariate(self, lambd: float) -> float: ...

    def randrange(self, stop: int) -> int: ...

    def random(self) -> float: ...

__all__ = ["ARRIVAL_BATCH", "OpenLoopTrafficGenerator", "TenantSpec", "TraceArrival"]

#: Arrivals precomputed per bulk draw.  Large enough to amortize the
#: per-batch setup, small enough that the draws thrown away when a
#: tenant's window ends mid-batch stay negligible.
ARRIVAL_BATCH = 128


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract and SLO.

    ``weight`` feeds the weighted-fair queue (share of service when the
    gateway is contended); ``max_queue_depth`` is the admission bound;
    ``slo_seconds`` stamps each request's deadline at arrival.
    ``object_sizes`` is a discrete size mix: ``((size_bytes, weight),
    ...)``.
    """

    name: str
    weight: float = 1.0
    users: int = 1
    rate_per_user: float = 0.0
    read_fraction: float = 1.0
    object_sizes: Tuple[Tuple[int, float], ...] = ((4 * MB, 1.0),)
    slo_seconds: float = 60.0
    max_queue_depth: int = 256

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.weight <= 0:
            raise ValueError(f"{self.name}: weight must be positive")
        if self.users < 0 or self.rate_per_user < 0:
            raise ValueError(f"{self.name}: negative traffic rate")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"{self.name}: read_fraction outside [0, 1]")
        if self.max_queue_depth < 1:
            raise ValueError(f"{self.name}: max_queue_depth must be >= 1")
        if not self.object_sizes or any(
            size <= 0 or share <= 0 for size, share in self.object_sizes
        ):
            raise ValueError(f"{self.name}: object_sizes must be positive pairs")

    @property
    def arrival_rate(self) -> float:
        """Aggregate offered requests/second across all logical users."""
        return self.users * self.rate_per_user


@dataclass(frozen=True)
class TraceArrival:
    """One trace-driven arrival (times are absolute sim seconds)."""

    time: float
    object_index: int
    size: int
    is_read: bool = True


@dataclass
class _TenantTraffic:
    """Per-tenant bookkeeping the generator exposes for assertions."""

    submitted: int = 0
    rejected: int = 0


class OpenLoopTrafficGenerator:
    """Drive a gateway with Poisson or trace-driven tenant arrivals."""

    def __init__(
        self,
        sim: Simulator,
        gateway: "Gateway",
        rng: RngRegistry,
        load_scale: float = 1.0,
    ) -> None:
        if load_scale < 0:
            raise ValueError("load_scale must be non-negative")
        self.sim = sim
        self.gateway = gateway
        self.rng = rng
        self.load_scale = load_scale
        self.stats: Dict[str, _TenantTraffic] = {}

    # -- arrival processes ------------------------------------------------

    def start(self, duration: float) -> List[Event]:
        """Spawn one Poisson arrival process per gateway tenant.

        Returns the processes (they end once ``duration`` sim seconds of
        arrivals have been offered).
        """
        processes: List[Event] = []
        end = self.sim.now + duration
        for spec in self.gateway.tenant_specs():
            self.stats.setdefault(spec.name, _TenantTraffic())
            if spec.arrival_rate * self.load_scale > 0.0:
                processes.append(self.sim.process(self._poisson_loop(spec, end)))
        return processes

    def replay(self, tenant: str, arrivals: Sequence[TraceArrival]) -> Event:
        """Spawn a process replaying an explicit arrival trace."""
        spec = self.gateway.tenant(tenant)
        self.stats.setdefault(spec.name, _TenantTraffic())
        ordered = sorted(arrivals, key=lambda a: (a.time, a.object_index))
        return self.sim.process(self._replay_loop(spec, ordered))

    def _poisson_loop(
        self, spec: TenantSpec, end: float
    ) -> Generator[Event, None, None]:
        rand = self.rng.stream(f"gateway.arrivals.{spec.name}")
        rate = spec.arrival_rate * self.load_scale
        sim = self.sim
        batch: List[Tuple[float, str, int, int, bool]] = []
        index = 0
        while True:
            if index >= len(batch):
                batch = self._draw_arrivals(rand, spec, rate, ARRIVAL_BATCH)
                index = 0
            gap, space_id, offset, size, is_read = batch[index]
            index += 1
            if sim.now + gap > end:
                return
            yield sim.timeout(gap)
            self._submit(spec, space_id, offset, size, is_read)

    def _draw_arrivals(
        self, rand: _ArrivalStream, spec: TenantSpec, rate: float, count: int
    ) -> List[Tuple[float, str, int, int, bool]]:
        """Precompute ``count`` arrivals: ``(gap, space_id, offset, size, is_read)``.

        The RNG calls per arrival — exponential gap, object index, size
        draw, block offset, read/write draw — happen in exactly the
        order the unbatched per-event loop made them, so the stream
        state after ``k`` consumed arrivals is identical and the arrival
        sequence for a fixed seed is bit-for-bit unchanged.  (Draws for
        arrivals past the end of the window are wasted, but the stream
        is exclusive to this tenant so nothing observes the difference.)

        The gateway's object table is fixed at deployment-attach time,
        so reading it once per batch instead of once per arrival is
        safe.
        """
        objects = self.gateway.objects()
        n_objects = len(objects)
        expovariate = rand.expovariate
        randrange = rand.randrange
        random_draw = rand.random
        sizes = spec.object_sizes
        total_share = sum(share for _, share in sizes)
        fallback_size = sizes[-1][0]
        read_fraction = spec.read_fraction
        batch: List[Tuple[float, str, int, int, bool]] = []
        append = batch.append
        for _ in range(count):
            gap = expovariate(rate)
            obj = objects[randrange(n_objects)]
            threshold = random_draw() * total_share
            cumulative = 0.0
            size = fallback_size
            for candidate, share in sizes:
                cumulative += share
                if threshold <= cumulative:
                    size = candidate
                    break
            region = obj.region_bytes
            blocks = max(1, region // size)
            offset = randrange(blocks) * size
            if offset + size > region:
                offset = max(0, region - size)
            append((gap, obj.space_id, offset, size, random_draw() < read_fraction))
        return batch

    def _replay_loop(
        self, spec: TenantSpec, arrivals: Sequence[TraceArrival]
    ) -> Generator[Event, None, None]:
        for arrival in arrivals:
            if arrival.time > self.sim.now:
                yield self.sim.timeout(arrival.time - self.sim.now)
            objects = self.gateway.objects()
            obj = objects[arrival.object_index % len(objects)]
            size = min(arrival.size, obj.region_bytes)
            self._submit(spec, obj.space_id, 0, size, arrival.is_read)

    def _submit(
        self, spec: TenantSpec, space_id: str, offset: int, size: int, is_read: bool
    ) -> None:
        traffic = self.stats[spec.name]
        ref = ObjectRef(space_id=space_id, offset=offset, size=size)
        op: Union[ReadObject, WriteObject]
        if is_read:
            op = ReadObject(tenant=spec.name, ref=ref)
        else:
            op = WriteObject(tenant=spec.name, ref=ref)
        try:
            self.gateway.submit_op(op)
        except AdmissionError:
            traffic.rejected += 1
        else:
            traffic.submitted += 1
