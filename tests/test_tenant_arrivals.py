"""Regression pin: the generator's arrivals == an independent per-call draw.

These tests replay a reference implementation — one
``rand.expovariate`` / ``randrange`` / ``random`` call per event, in
the order gap, object, size, offset, direction — against a stub gateway
and assert that ``OpenLoopTrafficGenerator`` submits a bit-identical
sequence of operations at identical simulated times for fixed seeds.
"""

from dataclasses import dataclass
from typing import List, Tuple

import pytest

from repro.gateway.api import ObjectRef, ReadObject, WriteObject
from repro.gateway.tenants import OpenLoopTrafficGenerator, TenantSpec
from repro.sim import RngRegistry, Simulator

MB = 1024 * 1024

TENANT = TenantSpec(
    name="archive",
    users=50,
    rate_per_user=0.2,
    read_fraction=0.7,
    object_sizes=((1 * MB, 3.0), (4 * MB, 1.0), (16 * MB, 0.5)),
)

#: A 1:3 mix of two sizes, both far below every object's region.
TWO_SIZES = TenantSpec(
    name="archive",
    users=50,
    rate_per_user=0.2,
    read_fraction=0.7,
    object_sizes=((100, 1.0), (200, 3.0)),
)

#: (sim_time, tenant, space_id, offset, size, is_read)
Submission = Tuple[float, str, str, int, int, bool]


@dataclass(frozen=True)
class _StubObject:
    space_id: str
    region_bytes: int


class _StubGateway:
    """Just enough gateway for the traffic generator: static objects,
    never-rejecting submit that records every operation."""

    def __init__(self, sim: Simulator, spec: TenantSpec) -> None:
        self.sim = sim
        self.spec = spec
        self._objects = [
            _StubObject("space-a", 64 * MB),
            _StubObject("space-b", 48 * MB),
            _StubObject("space-c", 20 * MB),
        ]
        self.submissions: List[Submission] = []

    def objects(self) -> List[_StubObject]:
        return self._objects

    def tenant_specs(self) -> List[TenantSpec]:
        return [self.spec]

    def tenant(self, name: str) -> TenantSpec:
        assert name == self.spec.name
        return self.spec

    def submit_op(self, op) -> None:
        is_read = isinstance(op, ReadObject)
        assert is_read or isinstance(op, WriteObject)
        self.submissions.append(
            (self.sim.now, op.tenant, op.ref.space_id, op.ref.offset,
             op.ref.size, is_read)
        )


def _run_generator(
    seed: int, duration: float, spec: TenantSpec = TENANT, load_scale: float = 1.0
) -> List[Submission]:
    sim = Simulator()
    gateway = _StubGateway(sim, spec)
    generator = OpenLoopTrafficGenerator(
        sim, gateway, RngRegistry(seed), load_scale=load_scale
    )
    generator.start(duration)
    sim.run()
    return gateway.submissions


def _run_reference(
    seed: int, duration: float, spec: TenantSpec = TENANT, load_scale: float = 1.0
) -> List[Submission]:
    """One draw per call, in the generator's order."""
    sim = Simulator()
    gateway = _StubGateway(sim, spec)
    rand = RngRegistry(seed).stream(f"gateway.arrivals.{spec.name}")
    rate = spec.arrival_rate * load_scale
    end = duration

    def loop():
        while True:
            gap = rand.expovariate(rate)
            if sim.now + gap > end:
                return
            yield sim.timeout(gap)
            objects = gateway.objects()
            obj = objects[rand.randrange(len(objects))]
            total = sum(share for _, share in spec.object_sizes)
            threshold = rand.random() * total
            cumulative = 0.0
            size = spec.object_sizes[-1][0]
            for candidate, share in spec.object_sizes:
                cumulative += share
                if threshold <= cumulative:
                    size = candidate
                    break
            blocks = max(1, obj.region_bytes // size)
            offset = rand.randrange(blocks) * size
            if offset + size > obj.region_bytes:
                offset = max(0, obj.region_bytes - size)
            is_read = rand.random() < spec.read_fraction
            ref = ObjectRef(space_id=obj.space_id, offset=offset, size=size)
            if is_read:
                gateway.submit_op(ReadObject(tenant=spec.name, ref=ref))
            else:
                gateway.submit_op(WriteObject(tenant=spec.name, ref=ref))

    sim.process(loop())
    sim.run()
    return gateway.submissions


@pytest.mark.parametrize(
    "seed, load_scale",
    [pytest.param(seed, 1.0, id=str(seed)) for seed in (0, 7, 11, 42, 1234)]
    # The gateway_slo campaign's top sweep point.
    + [pytest.param(11, 2.0, id="11-load_scale_2")],
)
def test_batched_arrivals_match_per_call_reference(seed, load_scale):
    generated = _run_generator(seed, duration=120.0, load_scale=load_scale)
    reference = _run_reference(seed, duration=120.0, load_scale=load_scale)
    expected = TENANT.arrival_rate * load_scale * 120.0
    assert abs(len(generated) - expected) < 0.1 * expected
    assert generated == reference


def test_two_size_mix_matches_per_call_reference():
    """A 1:3 two-size mix: both sizes drawn, the 3-share one far more often."""
    generated = _run_generator(7, duration=120.0, spec=TWO_SIZES)
    assert generated == _run_reference(7, duration=120.0, spec=TWO_SIZES)
    sizes = [submission[4] for submission in generated]
    assert set(sizes) == {100, 200}
    assert 2 * sizes.count(100) < sizes.count(200)


def test_stats_unchanged_by_batching():
    sim = Simulator()
    gateway = _StubGateway(sim, TENANT)
    generator = OpenLoopTrafficGenerator(sim, gateway, RngRegistry(5))
    generator.start(30.0)
    sim.run()
    stats = generator.stats[TENANT.name]
    assert stats.submitted == len(gateway.submissions)
    assert stats.rejected == 0
