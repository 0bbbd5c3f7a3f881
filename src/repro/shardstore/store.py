"""The shardstore: metadata-DB-free object packing over the gateway.

:class:`ShardStore` ties the pure routing/placement arithmetic
(:mod:`repro.shardstore.routing`) and the per-shard packing buffers
(:mod:`repro.shardstore.packer`) to a running
:class:`~repro.gateway.Gateway`:

* ``put(uid, date, size)`` routes the object, packs it into its
  shard's open buffer, and (at the fill threshold) flushes the
  buffered run as **one** large sequential ``WriteObject`` — one
  spin-up amortized over the whole run, scheduled through the same
  power-budgeted batch scheduler as every other request.
* ``get(uid, date)`` recomputes the shard from the key alone, looks
  the record up in the soft-state directory, and issues a
  :class:`~repro.gateway.ReadRange` against the shard's slot — a
  sub-block read the scheduler may coalesce with other same-shard
  retrievals into a single disk pass.
* ``recover()`` rebuilds the directory with nothing but gateway
  reads: it scans each shard's durable extent and re-registers the
  self-describing records found there.  The directory is a cache; the
  media is the metadata.  That is the no-metadata-DB invariant, and
  the crash/remount regression test holds the store to it.

Acknowledgement is completion-driven: an object is ACKED only when
the gateway reports its flush write COMPLETED (via the request's
``on_complete`` hook), so "acked" always means "durable on media".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.gateway.api import ObjectRef, ReadObject, ReadRange, WriteObject
from repro.gateway.request import AdmissionError, GatewayRequest, QueueFullError
from repro.obs.metrics import Gauge

from repro.shardstore.packer import (
    ObjectState,
    PackedObject,
    RECORD_HEADER_BYTES,
    ShardBuffer,
)
from repro.shardstore.routing import ShardId, ShardLayout, place, route
from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.gateway.gateway import Gateway

__all__ = [
    "FlushRefusedError",
    "ObjectNotFoundError",
    "ShardStore",
    "ShardStoreConfig",
    "ShardStoreError",
    "ShardStoreStats",
]


class ShardStoreError(Exception):
    """Base class for shardstore errors."""


class ObjectNotFoundError(ShardStoreError):
    """The directory has no record for the key (never acked, or the
    soft state was lost — run :meth:`ShardStore.recover` first)."""


class FlushRefusedError(QueueFullError):
    """:meth:`ShardStore.flush_all` met a full tenant queue.

    ``admitted`` holds the flush requests of the shards before the
    refused one; the refused shard and every later one stay buffered.
    """

    def __init__(self, refused: QueueFullError, admitted: List[GatewayRequest]) -> None:
        super().__init__(refused.tenant, refused.depth, refused.limit)
        self.admitted = admitted


@dataclass(frozen=True)
class ShardStoreConfig:
    """Store geometry and flush policy."""

    tenant: str
    shards_per_day: int = 8
    shard_capacity_bytes: int = 8 * MiB
    #: Flush an open shard once its tail passes this fraction of
    #: capacity; ``flush_all`` handles the rest at end of ingest.
    flush_fill_fraction: float = 0.85

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("shardstore needs a tenant")
        if not 0.0 < self.flush_fill_fraction <= 1.0:
            raise ValueError("flush_fill_fraction must be in (0, 1]")


@dataclass
class ShardStoreStats:
    """Exact object accounting (the exactly-once audit surface)."""

    accepted: int = 0
    acked: int = 0
    flush_failed: int = 0
    flushes: int = 0
    flush_failures: int = 0
    flushed_bytes: int = 0
    retrievals: int = 0
    retrieval_failures: int = 0
    recovery_scans: int = 0
    directory_drops: int = 0


@dataclass
class _Flush:
    """One in-flight flush: the records riding one gateway write."""

    buffer: ShardBuffer
    start: int
    extent: int
    records: List[PackedObject] = field(default_factory=list)


class ShardStore:
    """Small-object packer/retriever over a gateway's mounted spaces."""

    def __init__(self, gateway: "Gateway", config: ShardStoreConfig) -> None:
        objects = gateway.objects()
        if not objects:
            raise ShardStoreError("gateway has no attached objects")
        region = min(obj.region_bytes for obj in objects)
        slots_per_space = region // config.shard_capacity_bytes
        if slots_per_space < 1:
            raise ShardStoreError(
                f"spaces of {region} bytes cannot hold even one "
                f"{config.shard_capacity_bytes}-byte shard slot"
            )
        self.gateway = gateway
        self.config = config
        self.layout = ShardLayout(
            shards_per_day=config.shards_per_day,
            shard_capacity_bytes=config.shard_capacity_bytes,
            num_spaces=len(objects),
            slots_per_space=slots_per_space,
        )
        #: Space for each layout index, in the gateway's sorted order
        #: (stable — placement arithmetic depends on it).
        self._space_ids: List[str] = [obj.space_id for obj in objects]
        self.stats = ShardStoreStats()
        self._buffers: Dict[str, ShardBuffer] = {}
        #: The modelled on-media contents: records whose flush write
        #: completed, keyed by shard name.  Recovery reads these back
        #: (after paying for the physical scan) — they stand in for
        #: the self-describing record headers on the platter.
        self._media: Dict[str, List[PackedObject]] = {}
        #: Soft-state directory: (date, uid) -> acked record.  Purely
        #: a cache of what the media says; rebuildable via recover().
        self._directory: Dict[Tuple[str, str], PackedObject] = {}
        self._tracer = gateway.sim.tracer
        metrics = gateway.sim.metrics
        metrics.publish("shardstore", self.stats)
        self._m_fill = metrics.histogram("shardstore.flush_fill_fraction")
        self._m_open = metrics.gauge("shardstore.open_shards")
        self._m_buffered = metrics.gauge("shardstore.buffered_bytes")
        #: Running totals behind those two gauges: shards with a
        #: non-empty buffer, and the record bytes buffered across them.
        self._open_shards = 0
        self._buffered_bytes = 0
        self._occupancy_gauges: Dict[str, Gauge] = {}

    # -- placement helpers -------------------------------------------------

    def slot_ref(self, shard: ShardId) -> ObjectRef:
        """The shard's whole slot as a gateway extent."""
        placement = place(shard, self.layout)
        return ObjectRef(
            space_id=self._space_ids[placement.space_index],
            offset=placement.byte_offset,
            size=self.layout.shard_capacity_bytes,
            object_id=shard.name,
        )

    def _buffer(self, shard: ShardId) -> ShardBuffer:
        buffer = self._buffers.get(shard.name)
        if buffer is None:
            placement = place(shard, self.layout)
            buffer = ShardBuffer(
                shard=shard,
                placement=placement,
                space_id=self._space_ids[placement.space_index],
                capacity_bytes=self.layout.shard_capacity_bytes,
            )
            self._buffers[shard.name] = buffer
        return buffer

    # -- ingest ------------------------------------------------------------

    def put(self, uid: str, date: str, size: int) -> PackedObject:
        """Pack one object; flush its shard if the threshold is hit.

        A threshold flush the gateway refuses leaves the shard's run
        buffered for the next put or :meth:`flush_all`.
        """
        shard = route(uid, date, self.layout.shards_per_day)
        buffer = self._buffer(shard)
        record = buffer.append(uid, date, size)
        if len(buffer.buffered) == 1:
            self._open_shards += 1
        self._buffered_bytes += record.record_bytes
        self.stats.accepted += 1
        if self._tracer.enabled:
            record.trace = self._tracer.start(
                "shardstore.object",
                kind="object",
                uid=uid,
                date=date,
                shard=shard.name,
                size=size,
            )
        self._update_buffer_gauges()
        if buffer.fill_fraction >= self.config.flush_fill_fraction:
            try:
                self.flush_shard(shard.name)
            except AdmissionError:
                pass
        return record

    def flush_shard(self, shard_name: str) -> Optional[GatewayRequest]:
        """Flush one shard's buffered run as a single sequential write.

        The run is claimed only once the gateway admits the write, so a
        flush it refuses leaves the run buffered and every total as it
        was.
        """
        buffer = self._buffers.get(shard_name)
        if buffer is None or not buffer.buffered:
            return None
        start = buffer.buffered[0].offset_in_shard
        ref = ObjectRef(
            space_id=buffer.space_id,
            offset=buffer.placement.byte_offset + start,
            size=buffer.buffered_bytes,
            object_id=f"{buffer.shard.name}+{start}",
        )
        for record in buffer.buffered:
            # Everything since the object entered the buffer was spent
            # waiting for the packer to fill — pack_wait.
            record.trace.phase("pack_wait")
        request = self.gateway.submit_op(
            WriteObject(tenant=self.config.tenant, ref=ref)
        )
        start, extent, records = buffer.take_buffered()
        self._open_shards -= 1
        self._buffered_bytes -= extent
        self._m_fill.observe(buffer.fill_fraction)
        flush = _Flush(buffer=buffer, start=start, extent=extent, records=records)
        request.on_complete = lambda done, flush=flush: self._flush_done(
            flush, done
        )
        self.stats.flushes += 1
        self._update_buffer_gauges()
        return request

    def flush_all(self) -> List[GatewayRequest]:
        """Flush every open shard (end-of-ingest barrier), in shard order.

        Raises :class:`FlushRefusedError`, carrying the requests already
        admitted, at the first shard the tenant's full queue refuses.
        """
        requests: List[GatewayRequest] = []
        for shard_name in sorted(self._buffers):
            try:
                request = self.flush_shard(shard_name)
            except QueueFullError as exc:
                raise FlushRefusedError(exc, requests) from exc
            if request is not None:
                requests.append(request)
        return requests

    def _flush_done(self, flush: _Flush, request: GatewayRequest) -> None:
        buffer = flush.buffer
        buffer.inflight_flushes -= 1
        now = self.gateway.sim.now
        if request.failure is not None:
            self.stats.flush_failures += 1
            for record in flush.records:
                record.state = ObjectState.FAILED
                record.failure = request.failure
                self.stats.flush_failed += 1
                record.trace.phase("flush")
                record.trace.finish("failed")
            return
        buffer.durable_bytes += flush.extent
        self.stats.flushed_bytes += flush.extent
        media = self._media.setdefault(buffer.shard.name, [])
        for record in flush.records:
            record.state = ObjectState.ACKED
            record.acked_at = now
            self.stats.acked += 1
            media.append(record)
            self._directory[(record.date, record.uid)] = record
            record.trace.phase("flush")
            record.trace.finish("acked")
        gauge = self._occupancy_gauges.get(buffer.shard.name)
        if gauge is None:
            metric_name = "shardstore.occupancy." + buffer.shard.name.replace(
                "/", "."
            )
            gauge = self.gateway.sim.metrics.gauge(metric_name)
            self._occupancy_gauges[buffer.shard.name] = gauge
        gauge.set(buffer.occupancy)

    # -- retrieval ---------------------------------------------------------

    def get(self, uid: str, date: str) -> GatewayRequest:
        """Retrieve one object as a sub-block range read of its shard.

        The shard comes from ``route()`` (pure function), the offset
        from the directory record; nothing else is consulted.  Raises
        :class:`ObjectNotFoundError` when the record is unknown — not
        yet acked, lost to a failed flush, or the directory cache was
        dropped and :meth:`recover` has not run.
        """
        record = self._directory.get((date, uid))
        if record is None:
            raise ObjectNotFoundError(
                f"no acked record for uid={uid!r} date={date!r} "
                f"(routed shard: {route(uid, date, self.layout.shards_per_day).name})"
            )
        request = self.gateway.submit_op(
            ReadRange(
                tenant=self.config.tenant,
                ref=self.slot_ref(record.shard),
                start=record.offset_in_shard,
                length=record.record_bytes,
            )
        )
        request.on_complete = self._get_done
        return request

    def _get_done(self, request: GatewayRequest) -> None:
        if request.failure is not None:
            self.stats.retrieval_failures += 1
            return
        self.stats.retrievals += 1

    # -- recovery (the no-metadata-DB proof) -------------------------------

    def drop_directory(self) -> None:
        """Lose the soft state, as a crash/restart of this node would."""
        self._directory.clear()
        self.stats.directory_drops += 1

    def recover(self) -> List[GatewayRequest]:
        """Rebuild the directory from media alone.

        Issues one sequential scan read over each shard's durable
        extent; when a scan completes, the self-describing records it
        covered are re-registered.  No other source is consulted —
        if this restores every acked object, the store genuinely needs
        no metadata database.
        """
        requests: List[GatewayRequest] = []
        for shard_name in sorted(self._media):
            records = self._media[shard_name]
            if not records:
                continue
            shard = records[0].shard
            durable_end = max(
                record.offset_in_shard + record.record_bytes
                for record in records
            )
            slot = self.slot_ref(shard)
            scan_ref = ObjectRef(
                space_id=slot.space_id,
                offset=slot.offset,
                size=durable_end,
                object_id=f"{shard_name}@scan",
            )
            request = self.gateway.submit_op(
                ReadObject(tenant=self.config.tenant, ref=scan_ref)
            )
            request.on_complete = (
                lambda done, found=records: self._scan_done(found, done)
            )
            requests.append(request)
        return requests

    def _scan_done(
        self, found: List[PackedObject], request: GatewayRequest
    ) -> None:
        if request.failure is not None:
            return
        self.stats.recovery_scans += 1
        for record in found:
            self._directory[(record.date, record.uid)] = record

    # -- accounting --------------------------------------------------------

    def directory_size(self) -> int:
        return len(self._directory)

    def occupancy(self) -> Dict[str, float]:
        """Durable fill fraction per shard, sorted by shard name."""
        return {
            name: self._buffers[name].occupancy
            for name in sorted(self._buffers)
            if self._buffers[name].durable_bytes > 0
        }

    def summary(self) -> Dict[str, object]:
        stats = self.stats
        occupancy = self.occupancy()
        mean_occupancy = (
            sum(occupancy.values()) / len(occupancy) if occupancy else 0.0
        )
        return {
            "accepted": stats.accepted,
            "acked": stats.acked,
            "flush_failed": stats.flush_failed,
            "flushes": stats.flushes,
            "flush_failures": stats.flush_failures,
            "flushed_bytes": stats.flushed_bytes,
            "retrievals": stats.retrievals,
            "retrieval_failures": stats.retrieval_failures,
            "recovery_scans": stats.recovery_scans,
            "directory_size": self.directory_size(),
            "shards_used": len(occupancy),
            "spaces_used": len(
                {
                    self._buffers[name].space_id
                    for name in sorted(self._buffers)
                    if self._buffers[name].durable_bytes > 0
                }
            ),
            "mean_occupancy": mean_occupancy,
        }

    def _update_buffer_gauges(self) -> None:
        self._m_open.set(float(self._open_shards))
        self._m_buffered.set(float(self._buffered_bytes))
