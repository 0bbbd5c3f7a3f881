"""Tenant specifications and the open-loop traffic generator.

The generator is *open loop*: arrivals are drawn from a per-tenant
Poisson process whose rate is ``users × rate_per_user``, so a tenant
modelling two million archival users costs exactly one simulation
process, not two million.  Closed-loop drivers (``repro.workload
.iometer``) throttle themselves to the storage's service rate and hide
saturation; an open-loop front door keeps offering load while queues
grow, which is how admission control and SLO misses become visible.

All randomness flows through named :class:`~repro.sim.rng.RngRegistry`
streams (``gateway.arrivals.<tenant>``), one per tenant, so adding a
tenant never perturbs another tenant's arrival sequence.  Each arrival
draws its gap, then its object, size, offset and direction, from that
stream as it is due; ``tests/test_tenant_arrivals.py`` pins the
sequence against an independent per-call reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Tuple, Union

from repro.sim import Event, RngRegistry, Simulator
from repro.workload.specs import MB

from repro.gateway.api import ObjectRef, ReadObject, WriteObject
from repro.gateway.request import AdmissionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.gateway.gateway import Gateway

__all__ = ["OpenLoopTrafficGenerator", "TenantSpec"]


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


@dataclass
class _TenantTraffic:
    """Per-tenant bookkeeping the generator exposes for assertions."""

    submitted: int = 0
    rejected: int = 0


class OpenLoopTrafficGenerator:
    """Drive a gateway with Poisson tenant arrivals."""

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

    def _poisson_loop(
        self, spec: TenantSpec, end: float
    ) -> Generator[Event, None, None]:
        """Offer one tenant's arrivals until ``end``, drawing each one's
        gap, object, size, offset and direction, in that order, as it
        is due."""
        rand = self.rng.stream(f"gateway.arrivals.{spec.name}")
        rate = spec.arrival_rate * self.load_scale
        sizes = spec.object_sizes
        total_share = sum(share for _, share in sizes)
        sim = self.sim
        while True:
            gap = rand.expovariate(rate)
            if sim.now + gap > end:
                return
            yield sim.timeout(gap)
            objects = self.gateway.objects()
            obj = objects[rand.randrange(len(objects))]
            threshold = rand.random() * total_share
            cumulative = 0.0
            size = sizes[-1][0]
            for candidate, share in sizes:
                cumulative += share
                if threshold <= cumulative:
                    size = candidate
                    break
            region = obj.region_bytes
            offset = rand.randrange(max(1, region // size)) * size
            if offset + size > region:
                offset = max(0, region - size)
            is_read = rand.random() < spec.read_fraction
            self._submit(spec, obj.space_id, offset, size, is_read)

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
