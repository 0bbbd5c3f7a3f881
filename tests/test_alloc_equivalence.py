"""Property tests: optimized allocator vs independent reference oracle.

The incremental allocator (epoch-cached skeletons + lazy-heap
progressive filling) must match the test-tree reference implementation
(``tests/reference_alloc.py``) to 1e-9 on randomized topologies, flow
sets and switch states — and a topology change mid-run must never be
served a stale cache.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.fabric import (
    BandwidthModel,
    Flow,
    dual_tree_fabric,
    prototype_fabric,
    rack_fabric,
    ring_fabric,
)
from repro.fabric.bandwidth import DUPLEX_CAPACITY, PER_DIRECTION_CAPACITY, ROOT_IOPS_LIMIT
from repro.units import KiB, MiB
from tests.reference_alloc import reference_allocate

NUM_RANDOM_CASES = 55


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def build_random_case(seed: int):
    """A seeded random (fabric, flows) pair with random switch states."""
    rng = random.Random(seed)
    kind = rng.choice(["ring", "ring", "dual", "rack"])
    if kind == "ring":
        hosts = rng.choice([2, 3, 4, 6])
        per_leaf = rng.choice([1, 2])
        fabric = ring_fabric(num_hosts=hosts, disks_per_leaf=per_leaf, fan_in=4)
    elif kind == "dual":
        fabric = dual_tree_fabric(
            num_disks=rng.choice([3, 6, 10]), num_hosts=rng.choice([2, 4])
        )
    else:
        fabric = rack_fabric(rng.choice([1, 2]))

    switches = fabric.switches
    for switch in rng.sample(switches, rng.randint(0, len(switches))):
        switch.turn()

    disks = sorted(disk.node_id for disk in fabric.disks)
    count = rng.randint(1, len(disks))
    chosen = rng.sample(disks, count)
    tie_levels = [rng.uniform(10e6, 200e6) for _ in range(4)]
    flows = []
    for i, disk_id in enumerate(chosen):
        if rng.random() < 0.35:
            demand = rng.choice(tie_levels)  # force exact ties
        else:
            demand = rng.uniform(1e6, 400e6)
        flows.append(
            Flow(
                flow_id=f"f{i}",
                disk_id=disk_id,
                demand=demand,
                is_read=rng.random() < 0.5,
                io_size=rng.choice([4 * KiB, 4 * MiB]),
            )
        )
    return fabric, flows


def assert_matches_reference(fabric, model: BandwidthModel, flows) -> None:
    got = model.allocate(flows).rates
    expected = reference_allocate(
        fabric,
        flows,
        PER_DIRECTION_CAPACITY,
        DUPLEX_CAPACITY,
        ROOT_IOPS_LIMIT,
    )
    assert set(got) == set(expected)
    for flow_id in expected:
        assert close(got[flow_id], expected[flow_id]), (
            f"{flow_id}: optimized {got[flow_id]!r} != reference "
            f"{expected[flow_id]!r}"
        )


@pytest.mark.parametrize("seed", range(NUM_RANDOM_CASES))
def test_randomized_topologies_match_reference(seed):
    fabric, flows = build_random_case(seed)
    model = BandwidthModel(fabric)
    assert_matches_reference(fabric, model, flows)
    # Second call exercises the warm skeleton cache on the same epoch.
    assert_matches_reference(fabric, model, flows)
    # The retained naive baseline agrees too.
    naive = model.allocate_naive(flows).rates
    opt = model.allocate(flows).rates
    for flow_id in opt:
        assert close(opt[flow_id], naive[flow_id])


@pytest.mark.parametrize("seed", range(0, NUM_RANDOM_CASES, 7))
def test_switch_turn_mid_run_invalidates_caches(seed):
    """A switch turn between allocations must change the served result
    to the fresh-topology answer — a stale cache is never served."""
    fabric, flows = build_random_case(seed)
    model = BandwidthModel(fabric)
    model.allocate(flows)  # warm every cache on the current epoch

    rng = random.Random(1000 + seed)
    switch = rng.choice(fabric.switches)
    switch.turn()
    assert_matches_reference(fabric, model, flows)
    switch.turn()
    assert_matches_reference(fabric, model, flows)


def test_switch_turn_changes_allocation():
    """Concrete stale-cache scenario: steering a second leaf group onto
    an occupied root port halves those disks' share."""
    fabric = prototype_fabric()
    model = BandwidthModel(fabric)
    disks = sorted(disk.node_id for disk in fabric.disks)
    flows = [Flow(f"f{d}", d, 1e9, True) for d in disks]
    before = model.allocate(flows)
    # 16 unlimited readers over 4 root ports: 75 MB/s each.
    assert all(close(rate, 75e6) for rate in before.rates.values())

    # Steer leaf group 1 from roothub1 onto roothub2: port 2 now carries
    # 6 disks (50 MB/s each) while port 1 drops to 2 disks (150 MB/s).
    switch = next(s for s in fabric.switches if s.node_id == "leafsw1")
    switch.turn()
    after = model.allocate(flows)
    assert sorted(set(round(r) for r in after.rates.values())) == [
        50_000_000,
        75_000_000,
        150_000_000,
    ]
    assert_matches_reference(fabric, model, flows)


def test_failure_and_repair_invalidate_path_cache():
    fabric = prototype_fabric()
    model = BandwidthModel(fabric)
    disks = sorted(disk.node_id for disk in fabric.disks)
    flows = [Flow(f"f{d}", d, 1e9, True) for d in disks]
    model.allocate(flows)

    epoch = fabric.epoch
    fabric.node("roothub0").fail()
    assert fabric.epoch > epoch
    # Disks behind the failed hub are now detached: allocate must see it.
    with pytest.raises(ValueError):
        model.allocate(flows)

    fabric.node("roothub0").repair()
    assert_matches_reference(fabric, model, flows)


def test_epoch_bumps_on_topology_mutations():
    fabric = prototype_fabric()
    epoch = fabric.epoch

    fabric.switches[0].turn()
    assert fabric.epoch > epoch
    epoch = fabric.epoch

    # Setting a switch to the state it is already in is not a change.
    fabric.switches[0].state = fabric.switches[0].state
    assert fabric.epoch == epoch

    fabric.node("disk0").fail()
    assert fabric.epoch > epoch
    epoch = fabric.epoch
    fabric.node("disk0").repair()
    assert fabric.epoch > epoch


def test_active_path_is_cached_within_epoch():
    fabric = prototype_fabric()
    first = fabric.active_path("disk0")
    assert first is fabric.active_path("disk0")  # same cached tuple
    fabric.switches[0].turn()
    assert fabric.active_path("disk0") is not first
