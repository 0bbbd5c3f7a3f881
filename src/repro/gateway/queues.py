"""Weighted-fair request queue with bounded per-tenant admission.

Start-time fair queuing over bytes: each admitted request gets a
virtual *fair tag* ``max(V, last_finish[tenant]) + size/weight`` where
``V`` is the queue's virtual time (advanced to the largest dispatched
tag).  Draining in tag order gives each backlogged tenant service in
proportion to its weight, measured in bytes, while an idle tenant's
unused share is redistributed rather than banked.

Admission is a hard per-tenant depth bound checked before tagging, so
a misbehaving tenant overflows its own queue (typed
:class:`~repro.gateway.request.QueueFullError`) instead of growing the
gateway without bound — the open-loop generator keeps offering load
regardless, which is exactly the saturation regime the bound exists
for.

Queued requests live in per-disk buckets, because both questions the
dispatch pass asks ("which disks have work, how urgent" and "this disk's
next batch") are per disk.  Each bucket's :class:`PendingDisk` summary
is kept at push and take, so :meth:`WeightedFairQueue.pending_by_disk`
is O(disks) and reads no request, and a take reads only its own disk's
bucket.  Per tenant the queue keeps a depth counter and the last
finish tag.

Everything here is plain data structures; iteration orders are disk-id
order and explicit sort keys only, keeping the queue safe to use from
event-scheduling code (the DET003 contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Mapping

from repro.gateway.request import GatewayRequest, QueueFullError, UnknownTenantError
from repro.gateway.tenants import TenantSpec

__all__ = ["PendingDisk", "WeightedFairQueue"]

#: Drain order within a disk: fair tag, then request id.  Ids are
#: unique, so the order is total and does not depend on bucket order.
_take_order = attrgetter("fair_tag", "request_id")


@dataclass(frozen=True)
class PendingDisk:
    """Summary of one disk's queued work, as the scheduler sees it."""

    disk_id: str
    count: int
    earliest_arrival: float
    earliest_deadline: float
    oldest_request_id: int


def _summarize(disk_id: str, requests: List[GatewayRequest]) -> PendingDisk:
    return PendingDisk(
        disk_id=disk_id,
        count=len(requests),
        earliest_arrival=min(r.arrival for r in requests),
        earliest_deadline=min(r.deadline for r in requests),
        oldest_request_id=min(r.request_id for r in requests),
    )


class WeightedFairQueue:
    """Bounded per-tenant admission over per-disk buckets, drained in
    weighted-fair tag order."""

    def __init__(self, tenants: Mapping[str, TenantSpec]) -> None:
        if not tenants:
            raise ValueError("weighted-fair queue needs at least one tenant")
        self._specs: Dict[str, TenantSpec] = dict(tenants)
        self._depths: Dict[str, int] = {name: 0 for name in tenants}
        self._buckets: Dict[str, List[GatewayRequest]] = {}
        self._pending: Dict[str, PendingDisk] = {}
        self._virtual_time = 0.0
        self._last_finish: Dict[str, float] = {name: 0.0 for name in tenants}

    # -- admission ---------------------------------------------------------

    def push(self, request: GatewayRequest) -> None:
        """Admit one request or raise a typed admission error."""
        spec = self._specs.get(request.tenant)
        if spec is None:
            raise UnknownTenantError(request.tenant)
        depth = self._depths[request.tenant]
        if depth >= spec.max_queue_depth:
            raise QueueFullError(request.tenant, depth, spec.max_queue_depth)
        start = max(self._virtual_time, self._last_finish[request.tenant])
        finish = start + float(request.size) / spec.weight
        request.fair_tag = finish
        self._last_finish[request.tenant] = finish
        self._depths[request.tenant] = depth + 1
        disk_id = request.disk_id
        self._buckets.setdefault(disk_id, []).append(request)
        entry = self._pending.get(disk_id)
        if entry is None:
            self._pending[disk_id] = _summarize(disk_id, [request])
        else:
            self._pending[disk_id] = PendingDisk(
                disk_id=disk_id,
                count=entry.count + 1,
                earliest_arrival=min(entry.earliest_arrival, request.arrival),
                earliest_deadline=min(entry.earliest_deadline, request.deadline),
                oldest_request_id=min(entry.oldest_request_id, request.request_id),
            )

    # -- introspection -----------------------------------------------------

    def depth(self, tenant: str) -> int:
        return self._depths.get(tenant, 0)

    def total_depth(self) -> int:
        return sum(self._depths.values())

    def depths(self) -> Dict[str, int]:
        return dict(self._depths)

    def pending_by_disk(self) -> List[PendingDisk]:
        """Queued work grouped by target disk, sorted by disk id."""
        return [self._pending[disk_id] for disk_id in sorted(self._pending)]

    # -- extraction --------------------------------------------------------

    def take_for_disk(self, disk_id: str, limit: int) -> List[GatewayRequest]:
        """Remove up to ``limit`` of the disk's requests in fair-tag order."""
        bucket = self._buckets.get(disk_id)
        if limit < 1 or bucket is None:
            return []
        bucket.sort(key=_take_order)
        taken = bucket[:limit]
        rest = bucket[limit:]
        if rest:
            self._buckets[disk_id] = rest
            self._pending[disk_id] = _summarize(disk_id, rest)
        else:
            del self._buckets[disk_id]
            del self._pending[disk_id]
        for request in taken:
            self._depths[request.tenant] -= 1
            if request.fair_tag > self._virtual_time:
                self._virtual_time = request.fair_tag
        return taken
