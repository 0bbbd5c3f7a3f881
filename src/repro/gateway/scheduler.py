"""Power-aware cold-read batch scheduling (and the naive baseline).

The gateway's core bet is the paper's (§IV-F): spinning a cold disk up
costs 8 s and peak current, so the scheduler should (a) never have more
disks drawing power than a configured wattage budget allows, and
(b) once it pays for a spin-up, drain *every* queued request for that
disk in one batch, amortizing the spin-up across the burst.

:class:`PowerAccountant` tracks the budget.  A disk "draws power" when
its spin state is anything but SPUN_DOWN/POWERED_OFF; disks the
scheduler has granted a batch to but that have not yet left SPUN_DOWN
are carried in a grant set so two same-timestamp grants cannot
oversubscribe the budget.

:class:`ColdReadBatchScheduler` orders candidate disks by (failure
unit not already busy, earliest deadline, earliest arrival, disk id):
spreading concurrent batches across failure units first means a single
endpoint death strands at most one in-flight batch, then
earliest-deadline-first keeps SLO misses down.

:class:`FifoScheduler` is the deliberately naive baseline the
benchmark compares against: strict global arrival order, one request
per dispatch, head-of-line blocking when the budget is exhausted — the
behaviour of a request tier with no power awareness at all.

:func:`coalesce_batch` is the sub-block pass planner: once a batch is
granted, read requests landing in the same space whose extents overlap
(or fall within a configured gap) are merged into one :class:`DiskPass`
— one sequential media operation serving many object reads.  This is
what makes shardstore retrievals cheap: N objects packed in one shard
cost one disk pass, not N seeks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.disk.device import SimulatedDisk
from repro.disk.states import DiskPowerState

from repro.gateway.queues import PendingDisk
from repro.gateway.request import GatewayRequest
from repro.units import Watts

__all__ = [
    "ColdReadBatchScheduler",
    "DiskPass",
    "FifoScheduler",
    "PowerAccountant",
    "Scheduler",
    "coalesce_batch",
    "make_scheduler",
]

#: Spin states that draw meaningful power (budget-relevant).
_DRAWING_STATES = (
    DiskPowerState.SPINNING_UP,
    DiskPowerState.IDLE,
    DiskPowerState.ACTIVE,
)

HostLookup = Callable[[str], Optional[str]]


class PowerAccountant:
    """Watts bookkeeping for a set of gateway-managed disks.

    The set of drawing disks is kept current by the disks' state
    listeners, so a budget check reads no disk.  Every drawing disk adds
    the same ``watts_per_disk``, so the sum over them depends only on
    how many draw: ``_sums[n]`` is ``0.0 + w + ... + w`` with ``n``
    addends, the float a walk over the drawing disks reaches (not
    ``n * w``: float addition is not associative).
    """

    def __init__(
        self,
        disks: Mapping[str, SimulatedDisk],
        budget_watts: Watts,
        watts_per_disk: Watts,
    ) -> None:
        if budget_watts <= 0 or watts_per_disk <= 0:
            raise ValueError("power budget and per-disk watts must be positive")
        self._disks = dict(disks)
        self.budget_watts = budget_watts
        self.watts_per_disk = watts_per_disk
        # Disks granted a batch while still spun down: they will draw
        # power as soon as the batch's first I/O lands, so their watts
        # stay reserved until the state machine confirms the spin-up.
        self._granted: Dict[str, Watts] = {}
        sums = [0.0]
        for _ in self._disks:
            sums.append(sums[-1] + watts_per_disk)
        self._sums = tuple(sums)
        self._drawing: Set[str] = set()
        for disk_id, disk in self._disks.items():
            self._on_state(disk_id)
            disk.add_state_listener(self._on_state)

    def _on_state(self, disk_id: str, *_closed_interval: object) -> None:
        """Disk state listener: file the disk under its new state."""
        if self._disks[disk_id].power_state in _DRAWING_STATES:
            self._drawing.add(disk_id)
        else:
            self._drawing.discard(disk_id)

    def drawing(self, disk_id: str) -> bool:
        """Whether the disk currently draws (budget-relevant) power."""
        return disk_id in self._drawing

    def drawing_disks(self) -> List[str]:
        """The disks that currently draw power, by id."""
        return sorted(self._drawing)

    def in_use_watts(self) -> Watts:
        """Watts consumed by spinning disks plus outstanding grants.

        Retires the grant of every disk that now draws, then adds the
        remaining grants to the drawing disks' sum.
        """
        granted = self._granted
        drawing = self._drawing
        if granted:
            for disk_id in [d for d in granted if d in drawing]:
                del granted[disk_id]
        return Watts(self._sums[len(drawing)] + sum(granted.values()))

    def cost_of(self, disk_id: str) -> Watts:
        """Marginal watts of dispatching to ``disk_id`` right now."""
        if self.drawing(disk_id) or disk_id in self._granted:
            return Watts(0.0)
        return self.watts_per_disk

    def can_afford(self, disk_id: str) -> bool:
        return self.in_use_watts() + self.cost_of(disk_id) <= self.budget_watts

    def grant(self, disk_id: str) -> None:
        """Reserve watts for a still-spun-down disk's imminent batch."""
        if not self.drawing(disk_id):
            self._granted[disk_id] = self.watts_per_disk

    def release(self, disk_id: str) -> None:
        self._granted.pop(disk_id, None)

    def granted(self, disk_id: str) -> bool:
        return disk_id in self._granted


class ColdReadBatchScheduler:
    """Group per-disk batches; spread across failure units, then EDF."""

    name = "batch"
    #: A blocked candidate does not stall later ones (no head-of-line).
    head_of_line = False

    def __init__(self, max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch

    def order(
        self,
        pending: Sequence[PendingDisk],
        busy_hosts: Sequence[str],
        host_of: HostLookup,
    ) -> List[PendingDisk]:
        busy = sorted(set(busy_hosts))

        def key(entry: PendingDisk) -> Tuple[int, float, float, str]:
            host = host_of(entry.disk_id)
            return (
                1 if host in busy else 0,
                entry.earliest_deadline,
                entry.earliest_arrival,
                entry.disk_id,
            )

        return sorted(pending, key=key)

    def batch_limit(self, entry: PendingDisk) -> int:
        return min(entry.count, self.max_batch)


class FifoScheduler:
    """Naive baseline: strict arrival order, one request at a time."""

    name = "fifo"
    head_of_line = True

    def order(
        self,
        pending: Sequence[PendingDisk],
        busy_hosts: Sequence[str],
        host_of: HostLookup,
    ) -> List[PendingDisk]:
        del busy_hosts, host_of  # the baseline is power- and fault-oblivious
        return sorted(pending, key=lambda entry: entry.oldest_request_id)

    def batch_limit(self, entry: PendingDisk) -> int:
        del entry
        return 1


@dataclass
class DiskPass:
    """One physical media operation serving one or more batch requests.

    The envelope ``[offset, offset + size)`` covers every member's
    extent.  The gateway issues one plain read or write of the
    envelope (``MountedSpace.read``/``write``, one ``iscsi.io``) and
    completes every member from it.
    """

    space_id: str
    offset: int
    size: int
    is_read: bool
    requests: List[GatewayRequest] = field(default_factory=list)

    @property
    def end(self) -> int:
        return self.offset + self.size


def coalesce_batch(
    batch: Sequence[GatewayRequest], gap_bytes: int = 0
) -> List[DiskPass]:
    """Plan the disk passes for one granted batch.

    Reads within the same space are sorted by (offset, request_id) and
    merged whenever the next extent starts within ``gap_bytes`` of the
    running envelope's end (0 merges only overlapping/adjacent
    extents).  Writes are never merged — each is its own pass, in batch
    order.  Pass order follows each pass's earliest member's position
    in the original batch, so a batch with nothing to merge serves in
    exactly the legacy order.
    """
    if gap_bytes < 0:
        raise ValueError("gap_bytes must be >= 0")
    position: Dict[int, int] = {
        request.request_id: index for index, request in enumerate(batch)
    }
    passes: List[DiskPass] = []
    reads_by_space: Dict[str, List[GatewayRequest]] = {}
    for request in batch:
        if request.is_read:
            reads_by_space.setdefault(request.space_id, []).append(request)
        else:
            passes.append(
                DiskPass(
                    space_id=request.space_id,
                    offset=request.offset,
                    size=request.size,
                    is_read=False,
                    requests=[request],
                )
            )
    for space_id in sorted(reads_by_space):
        ordered = sorted(
            reads_by_space[space_id],
            key=lambda request: (request.offset, request.request_id),
        )
        current: Optional[DiskPass] = None
        for request in ordered:
            if current is not None and request.offset <= current.end + gap_bytes:
                new_end = max(current.end, request.offset + request.size)
                current.size = new_end - current.offset
                current.requests.append(request)
                continue
            current = DiskPass(
                space_id=space_id,
                offset=request.offset,
                size=request.size,
                is_read=True,
                requests=[request],
            )
            passes.append(current)
    passes.sort(
        key=lambda p: min(position[request.request_id] for request in p.requests)
    )
    return passes


Scheduler = Union[ColdReadBatchScheduler, FifoScheduler]


def make_scheduler(name: str) -> Scheduler:
    """Build a scheduler strategy by name (``batch`` or ``fifo``)."""
    if name == "batch":
        return ColdReadBatchScheduler()
    if name == "fifo":
        return FifoScheduler()
    raise ValueError(f"unknown scheduler {name!r} (expected 'batch' or 'fifo')")
