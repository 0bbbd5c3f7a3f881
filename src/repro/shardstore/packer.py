"""Shard buffers: pack small objects into large sequential extents.

A :class:`ShardBuffer` is the in-memory packing state of one open
shard: objects append at the running tail (each prefixed by a
fixed-size self-describing record header), and a flush takes the
buffered run as one contiguous extent for a single large gateway
write.  The buffer never reorders — offsets are assigned at ``put``
time and never move, so the ``(shard, offset, size)`` triple handed to
retrieval is stable from the moment the object is accepted.

State machine per object: ``BUFFERED`` (in memory, not yet on media)
→ ``FLUSHING`` (its flush write is in flight) → ``ACKED`` (the write
completed; the record is durable and retrievable) or ``FAILED`` (the
flush exhausted the ClientLib's remount budget).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.obs.trace import NULL_TRACE, TraceContext

from repro.shardstore.routing import ShardId, ShardPlacement

__all__ = [
    "ObjectState",
    "PackedObject",
    "RECORD_HEADER_BYTES",
    "ShardBuffer",
    "ShardCapacityError",
]

#: Per-record on-media header: uid, date, length, checksum.  Fixed
#: size so a recovery scan can walk a shard without any external
#: index — the records are the metadata.
RECORD_HEADER_BYTES = 64


class ShardCapacityError(Exception):
    """An object does not fit in its routed shard's remaining space."""


class ObjectState(enum.Enum):
    BUFFERED = "buffered"
    FLUSHING = "flushing"
    ACKED = "acked"
    FAILED = "failed"


@dataclass
class PackedObject:
    """One small object and its place inside its shard."""

    uid: str
    date: str
    size: int
    shard: ShardId
    #: Byte offset of the record header within the shard.
    offset_in_shard: int
    state: ObjectState = ObjectState.BUFFERED
    acked_at: Optional[float] = None
    failure: Optional[str] = None
    trace: TraceContext = field(default=NULL_TRACE, repr=False)

    @property
    def record_bytes(self) -> int:
        """Header + payload: the bytes the record occupies on media."""
        return RECORD_HEADER_BYTES + self.size

    @property
    def payload_offset(self) -> int:
        """Offset of the payload (after the header) within the shard."""
        return self.offset_in_shard + RECORD_HEADER_BYTES


@dataclass
class ShardBuffer:
    """Packing state of one open shard."""

    shard: ShardId
    placement: ShardPlacement
    space_id: str
    capacity_bytes: int
    #: Bytes acknowledged durable (flush writes that completed).
    durable_bytes: int = 0
    #: Tail past which the next object's record is placed; covers
    #: durable, in-flight and buffered records.
    tail: int = 0
    buffered: List[PackedObject] = field(default_factory=list)
    #: Record bytes of ``buffered``: the extent the next flush takes.
    buffered_bytes: int = 0
    inflight_flushes: int = 0

    def append(self, uid: str, date: str, size: int) -> PackedObject:
        """Accept one object at the running tail (or refuse: full)."""
        if size < 1:
            raise ValueError(f"object size must be >= 1, got {size}")
        record_bytes = RECORD_HEADER_BYTES + size
        if self.tail + record_bytes > self.capacity_bytes:
            raise ShardCapacityError(
                f"shard {self.shard.name}: object {uid!r} needs "
                f"{record_bytes} bytes but only "
                f"{self.capacity_bytes - self.tail} remain"
            )
        record = PackedObject(
            uid=uid,
            date=date,
            size=size,
            shard=self.shard,
            offset_in_shard=self.tail,
        )
        self.tail += record_bytes
        self.buffered_bytes += record_bytes
        self.buffered.append(record)
        return record

    def take_buffered(self) -> Tuple[int, int, List[PackedObject]]:
        """Claim the buffered run for a flush.

        Returns ``(start_offset_in_shard, extent_bytes, records)`` and
        marks the records FLUSHING.  The run is contiguous by
        construction (offsets were assigned at append time).
        """
        if not self.buffered:
            return (self.tail, 0, [])
        records = self.buffered
        self.buffered = []
        start = records[0].offset_in_shard
        extent = self.buffered_bytes
        self.buffered_bytes = 0
        for record in records:
            record.state = ObjectState.FLUSHING
        self.inflight_flushes += 1
        return (start, extent, records)

    @property
    def fill_fraction(self) -> float:
        """Committed + in-flight + buffered bytes over capacity."""
        return self.tail / self.capacity_bytes

    @property
    def occupancy(self) -> float:
        """Durable bytes over capacity (what a remount would find)."""
        return self.durable_bytes / self.capacity_bytes
