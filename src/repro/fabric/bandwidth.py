"""Bandwidth sharing across the USB fat tree (reproduces Figure 5).

USB 3.0 SuperSpeed is full duplex: ~5 Gb/s each way with 8b/10b
encoding, which the prototype measures as ~300 MB/s of realizable
one-direction payload per root port and ~540 MB/s total when reads and
writes run simultaneously (§VII-A).  Small transfers saturate the host
controller's command rate before they saturate bytes: the prototype's
4 KB curves flatten around 8 disks (~45 k IO/s per root port).

The model computes the max-min fair allocation of flow rates subject to
three families of linear constraints, using progressive filling:

* per link and direction: ``sum(rates) <= PER_DIRECTION_CAPACITY``;
* per link: ``sum(all rates) <= DUPLEX_CAPACITY``;
* per root port: ``sum(rate / io_size) <= ROOT_IOPS_LIMIT``;
* per flow: ``rate <= demand`` (the disk-limited rate from
  :class:`repro.disk.model.DiskModel`).

The paper observes that bandwidth is shared evenly among disks on a
host — exactly the max-min solution.

Rack-scale fast path
--------------------

The allocator is built for repeated evaluation over large fabrics
(see ``repro.fabric.builders.rack_fabric`` and the ``alloc_scale``
benchmark):

* constraint *skeletons* (everything except per-flow demands) are
  memoized per ``(fabric epoch, flow signature)`` — a switch turn,
  failure, repair or wiring change bumps the epoch and invalidates
  them, and disk paths come from the fabric's epoch-cached
  :meth:`~repro.fabric.topology.Fabric.active_path`;
* progressive filling is *incremental*: every constraint carries
  running ``used`` / ``active_weight`` sums updated as flows freeze,
  and the next binding constraint is found through a lazy min-heap of
  water-level bounds (bounds only rise as flows freeze, so stale heap
  entries are simply skipped) instead of resumming every member of
  every constraint each round.

:meth:`BandwidthModel.allocate_naive` retains the original
resum-everything algorithm as an in-package baseline for the
``alloc_scale`` speedup benchmark; the independent correctness oracle
lives in the test tree (``tests/reference_alloc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fabric.topology import Fabric
from repro.obs.metrics import NULL_REGISTRY, Gauge, MetricsRegistry
from repro.units import MB, Bytes, BytesPerSec, MiB

__all__ = ["BandwidthModel", "Flow", "FlowAllocation"]

#: Realizable one-direction payload on a USB 3.0 link (calibrated: the
#: paper's root hub tops out "around 300MB/s").
PER_DIRECTION_CAPACITY = BytesPerSec(300.0 * MB)

#: Realizable duplex total (the paper measures 540 MB/s with half
#: reads / half writes on one port).
DUPLEX_CAPACITY = BytesPerSec(540.0 * MB)

#: Host-controller command rate per root port (calibrated: 4KB
#: sequential curves saturate around 8 disks, ~45k IO/s).
ROOT_IOPS_LIMIT = 45_000.0

#: Relative tolerance for "these constraints bind at the same water
#: level" ties.  Shared with the test-tree reference implementation so
#: both classify borderline rounds identically.
TIE_REL_TOL = 1e-9

_INF = float("inf")


@dataclass(frozen=True)
class Flow:
    """One disk<->host data stream."""

    flow_id: str
    disk_id: str
    demand: BytesPerSec  # what the disk could sustain alone
    is_read: bool  # read: disk -> host direction
    io_size: Bytes = Bytes(4 * MiB)

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"negative demand {self.demand}")
        if self.io_size <= 0:
            raise ValueError(f"io_size must be positive, got {self.io_size}")


@dataclass(frozen=True)
class FlowAllocation:
    """Result of the fair-share computation."""

    rates: Dict[str, float]  # flow_id -> bytes/s

    def total(self) -> float:
        return sum(self.rates.values())

    def rate(self, flow_id: str) -> float:
        return self.rates[flow_id]


class _Constraint:
    """One capacity constraint of the cached skeleton.

    ``members`` maps flow index -> weight as a flat list for fast
    iteration; ``gauge`` caches the utilisation gauge handle so
    armed-metrics runs don't rebuild the metric name string (and
    re-hash the registry) on every allocation.
    """

    __slots__ = ("capacity", "label", "members", "gauge")

    def __init__(self, capacity: float, label: str) -> None:
        self.capacity = capacity
        self.label = label
        self.members: List[Tuple[int, float]] = []
        self.gauge: Optional[Gauge] = None


#: A skeleton: the constraints plus, per flow index, that flow's
#: memberships as (constraint index, weight) pairs.
_Skeleton = Tuple[List[_Constraint], List[List[Tuple[int, float]]]]


def _progressive_fill(
    n: int,
    demands: Sequence[float],
    constraints: Sequence[_Constraint],
    flow_cons: Sequence[Sequence[Tuple[int, float]]],
) -> Tuple[List[float], List[float]]:
    """Incremental max-min water filling.

    Returns ``(rates, used)`` where ``used[c]`` is the capacity consumed
    on constraint ``c`` by the final rates.

    Invariants (documented in DESIGN.md §8):

    * every still-active flow sits at the common water level ``L``;
    * per constraint, ``used + active_weight * L <= capacity`` with
      ``used``/``active_weight`` maintained incrementally as flows
      freeze — never resummed;
    * a constraint's bound ``(capacity - used) / active_weight`` is
      non-decreasing as flows freeze, so the lazy heap never hides a
      lower bound behind a stale entry.
    """
    rates = [0.0] * n
    frozen = [False] * n
    m = len(constraints)
    used = [0.0] * m  # capacity consumed by frozen members
    active_weight = [0.0] * m
    active_count = [0] * m
    version = [0] * m

    heap: List[Tuple[float, int, int]] = []
    for c in range(m):
        weight = 0.0
        count = 0
        for _index, w in constraints[c].members:
            weight += w
            count += 1
        active_weight[c] = weight
        active_count[c] = count
        if count and weight > 0.0:
            heap.append((constraints[c].capacity / weight, c, 0))
    heapify(heap)

    by_demand = sorted(range(n), key=lambda i: (demands[i], i))
    ptr = 0
    remaining = n
    level = 0.0

    while remaining:
        # Next binding constraint bound (skip stale lazy-heap entries).
        while heap and heap[0][2] != version[heap[0][1]]:
            heappop(heap)
        cons_bound = heap[0][0] if heap else _INF
        # Next demand cap.
        while ptr < n and frozen[by_demand[ptr]]:
            ptr += 1
        demand_bound = demands[by_demand[ptr]] if ptr < n else _INF

        best = cons_bound if cons_bound <= demand_bound else demand_bound
        if best == _INF:
            break
        if best > level:
            level = best
        scale = abs(best)
        cutoff = best + TIE_REL_TOL * (scale if scale > 1.0 else 1.0)

        newly: List[int] = []
        while ptr < n:
            i = by_demand[ptr]
            if frozen[i]:
                ptr += 1
            elif demands[i] <= cutoff:
                frozen[i] = True
                newly.append(i)
                ptr += 1
            else:
                break
        while heap:
            bound, c, v = heap[0]
            if v != version[c]:
                heappop(heap)
            elif bound <= cutoff:
                heappop(heap)
                for i, _w in constraints[c].members:
                    if not frozen[i]:
                        frozen[i] = True
                        newly.append(i)
            else:
                break
        if not newly:  # defensive: numerical dead end, stop raising water
            break
        remaining -= len(newly)
        for i in newly:
            rates[i] = level
            for c, w in flow_cons[i]:
                used[c] += w * level
                count = active_count[c] - 1
                active_count[c] = count
                version[c] += 1
                if count:
                    weight = active_weight[c] - w
                    active_weight[c] = weight
                    if weight > 0.0:
                        heappush(
                            heap,
                            ((constraints[c].capacity - used[c]) / weight, c, version[c]),
                        )
                else:
                    active_weight[c] = 0.0
    return rates, used


class BandwidthModel:
    """Max-min fair allocator over a fabric's active topology."""

    def __init__(self, fabric: Fabric, metrics: Optional[MetricsRegistry] = None):
        self.fabric = fabric
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.allocations = 0
        self.metrics.publish("fabric", self, ("allocations",))
        # Constraint skeletons memoized per (topology epoch, flow
        # signature); see _build_constraints.
        self._skeleton_cache: Dict[Tuple[Tuple[str, bool, int], ...], _Skeleton] = {}
        self._skeleton_epoch = -1

    # -- constraint construction ------------------------------------------

    def _flow_path(self, flow: Flow) -> Tuple[str, ...]:
        """Node ids on the flow's active path, ending at a host port."""
        walk = self.fabric.active_path(flow.disk_id)
        if not walk or self.fabric.node(walk[-1]).kind.value != "host_port":
            raise ValueError(f"disk {flow.disk_id!r} is not attached to any host")
        return walk

    def _build_constraints(self, flows: Sequence[Flow]) -> _Skeleton:
        """The cached constraint skeleton for ``flows``.

        The skeleton contains every shared constraint (directional,
        duplex, root IOPS) but not the per-flow demand caps, which
        depend on demand values and are applied directly by the filling
        loop.  Cached per topology epoch and per flow signature
        ``(disk_id, is_read, io_size)``; callers must not mutate it.
        """
        epoch = self.fabric.epoch
        if self._skeleton_epoch != epoch:
            self._skeleton_cache.clear()
            self._skeleton_epoch = epoch
        signature = tuple((f.disk_id, f.is_read, f.io_size) for f in flows)
        skeleton = self._skeleton_cache.get(signature)
        if skeleton is None:
            if len(self._skeleton_cache) >= 128:
                self._skeleton_cache.clear()
            skeleton = self._build_skeleton_uncached(flows)
            self._skeleton_cache[signature] = skeleton
        return skeleton

    def _build_skeleton_uncached(self, flows: Sequence[Flow]) -> _Skeleton:
        directional: Dict[Tuple[str, str, bool], int] = {}
        duplex: Dict[Tuple[str, str], int] = {}
        root_iops: Dict[str, int] = {}
        constraints: List[_Constraint] = []
        flow_cons: List[List[Tuple[int, float]]] = []

        for index, flow in enumerate(flows):
            memberships: List[Tuple[int, float]] = []
            walk = self._flow_path(flow)
            is_read = flow.is_read
            prev = walk[0]
            for node in walk[1:]:
                key = (prev, node, is_read)
                cidx = directional.get(key)
                if cidx is None:
                    cidx = len(constraints)
                    direction = "read" if is_read else "write"
                    constraints.append(
                        _Constraint(
                            PER_DIRECTION_CAPACITY,
                            f"fabric.link.{prev}->{node}.{direction}",
                        )
                    )
                    directional[key] = cidx
                constraints[cidx].members.append((index, 1.0))
                memberships.append((cidx, 1.0))

                dkey = (prev, node)
                didx = duplex.get(dkey)
                if didx is None:
                    didx = len(constraints)
                    constraints.append(
                        _Constraint(
                            DUPLEX_CAPACITY,
                            f"fabric.link.{prev}->{node}.duplex",
                        )
                    )
                    duplex[dkey] = didx
                constraints[didx].members.append((index, 1.0))
                memberships.append((didx, 1.0))
                prev = node
            if len(walk) > 1:
                root = walk[-1]
                ridx = root_iops.get(root)
                if ridx is None:
                    ridx = len(constraints)
                    constraints.append(
                        _Constraint(ROOT_IOPS_LIMIT, f"fabric.root.{root}.iops")
                    )
                    root_iops[root] = ridx
                weight = 1.0 / flow.io_size
                constraints[ridx].members.append((index, weight))
                memberships.append((ridx, weight))
            flow_cons.append(memberships)
        return constraints, flow_cons

    # -- progressive filling -------------------------------------------------

    def allocate(self, flows: Sequence[Flow]) -> FlowAllocation:
        """Max-min fair rates for ``flows`` over the current topology."""
        if not flows:
            return FlowAllocation(rates={})
        seen = set()
        for flow in flows:
            if flow.flow_id in seen:
                raise ValueError(f"duplicate flow id {flow.flow_id!r}")
            seen.add(flow.flow_id)

        constraints, flow_cons = self._build_constraints(flows)
        demands = [flow.demand for flow in flows]
        rates, used = _progressive_fill(len(flows), demands, constraints, flow_cons)

        self.allocations += 1
        if self.metrics.enabled:
            self._record_utilisation(constraints, used)
        return FlowAllocation(
            rates={flow.flow_id: rates[i] for i, flow in enumerate(flows)}
        )

    # -- naive baseline ----------------------------------------------------

    def allocate_naive(self, flows: Sequence[Flow]) -> FlowAllocation:
        """The pre-optimization allocator, kept as a benchmark baseline.

        Re-traces every disk path and rebuilds every constraint on each
        call, then runs progressive filling by resumming every
        constraint's members every round.  Semantically identical to
        :meth:`allocate` (same tie tolerance); used by the
        ``alloc_scale`` benchmark to measure the speedup, and by tests
        as a second oracle next to ``tests/reference_alloc.py``.
        """
        if not flows:
            return FlowAllocation(rates={})
        seen = set()
        for flow in flows:
            if flow.flow_id in seen:
                raise ValueError(f"duplicate flow id {flow.flow_id!r}")
            seen.add(flow.flow_id)

        # Uncached path walks + fresh constraints: the honest baseline.
        directional: Dict[Tuple[str, str, bool], _Constraint] = {}
        duplex: Dict[Tuple[str, str], _Constraint] = {}
        root_iops: Dict[str, _Constraint] = {}
        constraints: List[_Constraint] = []
        for index, flow in enumerate(flows):
            walk = self.fabric._trace_up_uncached(flow.disk_id, True)
            if not walk or self.fabric.node(walk[-1]).kind.value != "host_port":
                raise ValueError(f"disk {flow.disk_id!r} is not attached to any host")
            links = list(zip(walk, walk[1:]))
            for link in links:
                key = (link[0], link[1], flow.is_read)
                cons = directional.get(key)
                if cons is None:
                    direction = "read" if flow.is_read else "write"
                    cons = _Constraint(
                        PER_DIRECTION_CAPACITY,
                        f"fabric.link.{link[0]}->{link[1]}.{direction}",
                    )
                    directional[key] = cons
                    constraints.append(cons)
                cons.members.append((index, 1.0))

                dkey = (link[0], link[1])
                dcons = duplex.get(dkey)
                if dcons is None:
                    dcons = _Constraint(
                        DUPLEX_CAPACITY,
                        f"fabric.link.{link[0]}->{link[1]}.duplex",
                    )
                    duplex[dkey] = dcons
                    constraints.append(dcons)
                dcons.members.append((index, 1.0))
            if links:
                root = links[-1][1]
                rcons = root_iops.get(root)
                if rcons is None:
                    rcons = _Constraint(ROOT_IOPS_LIMIT, f"fabric.root.{root}.iops")
                    root_iops[root] = rcons
                    constraints.append(rcons)
                rcons.members.append((index, 1.0 / flow.io_size))
        # Demand caps as single-member constraints.
        for i, flow in enumerate(flows):
            cons = _Constraint(flow.demand, "")
            cons.members.append((i, 1.0))
            constraints.append(cons)

        n = len(flows)
        rates = [0.0] * n
        frozen = [False] * n
        level = 0.0
        for _ in range(n + len(constraints)):
            if all(frozen):
                break
            best = _INF
            for cons in constraints:
                used = 0.0
                weight = 0.0
                for i, w in cons.members:
                    used += w * rates[i]
                    if not frozen[i]:
                        weight += w
                if weight <= 0.0:
                    continue
                bound = (cons.capacity - used) / weight
                if bound < best:
                    best = bound
            if best == _INF:
                break
            if best > level:
                level = best
            scale = abs(best)
            cutoff = best + TIE_REL_TOL * (scale if scale > 1.0 else 1.0)
            progressed = False
            for cons in constraints:
                used = 0.0
                weight = 0.0
                for i, w in cons.members:
                    used += w * rates[i]
                    if not frozen[i]:
                        weight += w
                if weight <= 0.0:
                    continue
                if (cons.capacity - used) / weight <= cutoff:
                    for i, _w in cons.members:
                        if not frozen[i]:
                            frozen[i] = True
                            rates[i] = level
                            progressed = True
            if not progressed:
                break
        return FlowAllocation(
            rates={flow.flow_id: rates[i] for i, flow in enumerate(flows)}
        )

    # -- metrics -----------------------------------------------------------

    def _record_utilisation(
        self, constraints: Sequence[_Constraint], used: Sequence[float]
    ) -> None:
        """Per-link/root gauges from the final allocation (0..1 of cap)."""
        for c, cons in enumerate(constraints):
            util = used[c] / cons.capacity if cons.capacity > 0 else 0.0
            gauge = cons.gauge
            if gauge is None:
                gauge = cons.gauge = self.metrics.gauge(f"{cons.label}.util")
            gauge.set(util)
