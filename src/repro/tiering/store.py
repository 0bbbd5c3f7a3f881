"""The tiered store: hot staging log + cold homes over one gateway.

:class:`TieredStore` splits a gateway's mounted spaces into a small
**hot tier** (the gateway's pinned, always-spinning disks) and the
**cold tier** (everything else, power-gated as usual):

* ``write(uid, size)`` reserves bounded staging bytes, appends the
  object to a hot-tier log (circular bump allocator), and submits the
  hot write through the ordinary gateway path.  Because the hot disk
  is already spinning, the ack — completion-driven, so "acked" means
  durable on hot media — arrives at hot latency instead of behind a
  cold spin-up.  The object's durable **cold home** (space chosen by
  ``stable_hash(uid)`` over the cold spaces — a pure function, no
  lookup table) is assigned immediately; only the byte offset waits
  for demotion so each cold flush packs one sequential run.
* ``read(uid)`` serves from the hot tier while an object is staged or
  promoted, otherwise from its cold home; every cold read feeds the
  segmented-LRU policy, which may trigger a background promotion copy.
* demotion/promotion/recovery traffic is submitted under
  ``config.migration_tenant`` — its own tenant label, so weighted-fair
  queuing, SLO burn-rate windows and flight-recorder dumps attribute
  background pressure to the migration, never to user tenants.
* ``drop_soft_state()`` + ``recover()`` replay a crash of the tiering
  node: the index, staging accounting and recency policy are all soft
  state; recovery issues scan reads over both tiers' durable extents
  and resolves each object to **exactly one** tier (a cold copy wins
  over its hot twin — the demotion landed even if the commit was
  lost; a hot-only copy is re-staged and owes a fresh demotion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.gateway.api import ObjectRef, ReadObject, WriteObject
from repro.gateway.gateway import GatewayObject
from repro.gateway.request import GatewayError, GatewayRequest
from repro.obs.energy import EnergyLedger
from repro.obs.trace import NULL_TRACE, TraceContext
from repro.shardstore.routing import stable_hash
from repro.units import MiB, SimSeconds

from repro.tiering.policy import SegmentedLruPolicy
from repro.tiering.staging import StagingBuffer, TieringError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.gateway.gateway import Gateway

__all__ = [
    "ObjectMissingError",
    "TierState",
    "TieredObject",
    "TieredStore",
    "TieringConfig",
    "TieringStats",
    "pinned_disks_for",
]


#: Max bytes one demotion batch packs into a single sequential write.
DEMOTION_BATCH_BYTES = 8 * MiB


class ObjectMissingError(TieringError):
    """No record for the uid — never written, or soft state was lost
    and :meth:`TieredStore.recover` has not completed."""


class TierState(Enum):
    #: Hot write submitted, not yet durable — the only un-acked state.
    STAGING = "staging"
    #: Durable on the hot log, owed a demotion to its cold home.
    STAGED = "staged"
    #: Riding an in-flight demotion batch (still served from hot).
    DEMOTING = "demoting"
    #: Durable in its cold home; the hot copy (if any) is a cache.
    COLD = "cold"
    FAILED = "failed"


@dataclass
class TieredObject:
    """One object's placement across the two tiers."""

    uid: str
    size: int
    cold_space: str
    state: TierState
    written_at: float
    #: Staging-log extent; present from admission until demotion commits.
    hot_ref: Optional[ObjectRef] = None
    #: Durable cold extent; offset assigned when a demotion batch packs it.
    cold_ref: Optional[ObjectRef] = None
    #: Promotion cache extent on the hot log (cold copy stays authoritative).
    cache_ref: Optional[ObjectRef] = None
    acked_at: Optional[float] = None
    demoted_at: Optional[float] = None
    promote_inflight: bool = False
    failure: Optional[str] = None
    trace: TraceContext = field(default=NULL_TRACE, repr=False)


@dataclass(frozen=True)
class TieringConfig:
    """Tier geometry, staging bound, and migration pacing."""

    tenant: str
    migration_tenant: str = "migration"
    #: Leading (sorted) gateway spaces that form the always-hot tier.
    hot_spaces: int = 2
    staging_capacity_bytes: int = 32 * MiB
    #: A cold space flushes only once it owes this many bytes …
    demotion_min_batch_bytes: int = 1 * MiB
    #: … or its oldest staged write has waited this long.  Together
    #: these amortize one spin-up over a whole run instead of paying
    #: it per trickling object.
    demotion_max_age_seconds: SimSeconds = SimSeconds(60.0)
    demotion_check_interval: SimSeconds = SimSeconds(2.0)
    #: Pause migration while foreground queue depth exceeds this.
    pressure_queue_depth: int = 8
    max_inflight_demotions: int = 2
    #: Protected hot residents idle past this are demoted (cache drop).
    hot_idle_seconds: SimSeconds = SimSeconds(120.0)

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tiering needs a foreground tenant")
        if self.migration_tenant == self.tenant:
            raise ValueError("migration tenant must differ from the foreground")
        if self.hot_spaces < 1:
            raise ValueError("need at least one hot space")
        if self.staging_capacity_bytes <= 0:
            raise ValueError("the staging bound must be positive")
        if self.demotion_min_batch_bytes < 0 or self.demotion_max_age_seconds < 0:
            raise ValueError("demotion gates must be non-negative")
        if self.max_inflight_demotions < 1:
            raise ValueError("max_inflight_demotions must be positive")


@dataclass
class TieringStats:
    """Exact object accounting (the exactly-once audit surface)."""

    written: int = 0
    staged: int = 0
    stage_failures: int = 0
    demotion_batches: int = 0
    demotion_failures: int = 0
    demoted: int = 0
    demoted_bytes: int = 0
    promotions: int = 0
    promotion_failures: int = 0
    evictions: int = 0
    hot_reads: int = 0
    cold_reads: int = 0
    read_failures: int = 0
    recovery_scans: int = 0
    recovered_hot_only: int = 0
    recovered_duplicates: int = 0
    soft_state_drops: int = 0


@dataclass
class _DemotionBatch:
    """The staged objects riding one sequential cold write."""

    space_id: str
    base_offset: int
    extent: int
    records: List[TieredObject] = field(default_factory=list)


def pinned_disks_for(objects: List[GatewayObject], hot_spaces: int) -> tuple:
    """Disk ids of the first ``hot_spaces`` sorted gateway spaces.

    Use this to build ``GatewayConfig(pinned_disks=...)`` consistent
    with a :class:`TieringConfig` of the same ``hot_spaces``.
    """
    ordered = sorted(objects, key=lambda o: o.space_id)
    return tuple(obj.disk_id for obj in ordered[:hot_spaces])


class TieredStore:
    """Hot/cold tiering with write staging over a gateway's spaces."""

    def __init__(self, gateway: "Gateway", config: TieringConfig) -> None:
        objects = gateway.objects()
        if len(objects) <= config.hot_spaces:
            raise TieringError(
                f"{len(objects)} spaces cannot split into {config.hot_spaces} "
                "hot plus at least one cold"
            )
        # Both tenants must be registered so fair queuing and SLO
        # windows see migration traffic under its own label.
        gateway.tenant(config.tenant)
        gateway.tenant(config.migration_tenant)
        self.gateway = gateway
        self.config = config
        ordered = sorted(objects, key=lambda o: o.space_id)
        self._hot_spaces: List[str] = [o.space_id for o in ordered[: config.hot_spaces]]
        self._cold_spaces: List[str] = [o.space_id for o in ordered[config.hot_spaces :]]
        self._region_bytes: Dict[str, int] = {
            o.space_id: o.region_bytes for o in ordered
        }
        self._hot_disks: List[str] = [o.disk_id for o in ordered[: config.hot_spaces]]
        self._disk_of_space: Dict[str, str] = {
            o.space_id: o.disk_id for o in ordered
        }
        pinned = set(gateway.config.pinned_disks)
        missing = [d for d in self._hot_disks if d not in pinned]
        if missing:
            raise TieringError(
                f"hot disks {missing} must be pinned in GatewayConfig "
                "(pinned_disks) so the spin-down policy exempts them"
            )
        hot_capacity = sum(self._region_bytes[s] for s in self._hot_spaces)
        if config.staging_capacity_bytes > hot_capacity:
            raise TieringError(
                f"staging bound {config.staging_capacity_bytes} exceeds hot "
                f"log capacity {hot_capacity}"
            )
        self.stats = TieringStats()
        self.staging = StagingBuffer(config.staging_capacity_bytes)
        self.policy = SegmentedLruPolicy(idle_seconds=config.hot_idle_seconds)
        #: Soft-state placement index: uid -> record.  A cache of what
        #: the media says; rebuilt by recover() after a crash.
        self._index: Dict[str, TieredObject] = {}
        #: Modelled durable platter contents per tier, keyed by space
        #: then uid.  Updated only from write completions; recovery
        #: reads these back after paying for the physical scans.
        self._hot_media: Dict[str, Dict[str, TieredObject]] = {}
        self._cold_media: Dict[str, Dict[str, TieredObject]] = {}
        #: Circular bump allocators (hot log) and append tails (cold).
        self._hot_tails: Dict[str, int] = {s: 0 for s in self._hot_spaces}
        self._cold_tails: Dict[str, int] = {s: 0 for s in self._cold_spaces}
        self.inflight_demotions = 0
        self._inflight_spaces: List[str] = []
        #: Crash epoch: bumped by drop_soft_state().  Completion hooks
        #: issued before a crash are *orphaned* — their data still
        #: lands on the modelled platter (the gateway/ClientLib finish
        #: the write regardless), but they must not touch the reborn
        #: node's soft state.  Recovery then observes the duplicate
        #: and resolves it, which is the whole point.
        self._epoch = 0
        self._pending_scans = 0
        self._scan_found_hot: Dict[str, TieredObject] = {}
        self._scan_found_cold: Dict[str, TieredObject] = {}
        self._tracer = gateway.sim.tracer
        metrics = gateway.sim.metrics
        metrics.publish("tiering", self.stats)
        metrics.publish("tiering.staging", self.staging, ("overflows",))
        self._m_staged_bytes = metrics.gauge("tiering.staged_bytes")
        self._m_batch_bytes = metrics.histogram("tiering.demotion_batch_bytes")
        self._m_stage_latency = metrics.histogram("tiering.stage_latency_seconds")

    # -- geometry ---------------------------------------------------------

    def hot_spaces(self) -> List[str]:
        return list(self._hot_spaces)

    def cold_spaces(self) -> List[str]:
        return list(self._cold_spaces)

    def classify_tiers(self, ledger: "EnergyLedger") -> None:
        """Label this store's disks on an energy ledger.

        The pinned hot tier books under ``hot`` and every other gateway
        disk under ``cold``, so per-tier joule tables can show what the
        always-spinning tier's rent buys.
        """
        hot = set(self._hot_disks)
        for disk_id in sorted(self.gateway._disks):
            ledger.set_tier(disk_id, "hot" if disk_id in hot else "cold")

    def start(self) -> None:
        """Spin the hot tier up so staged writes never wait on a motor.

        The spin-ups are issued through the normal disk state machine
        and count against the gateway's spin-up/energy accounting —
        the hot tier's cost is paid inside the same power envelope.
        """
        for disk_id in self._hot_disks:
            disk = self.gateway._disks[disk_id]
            if not disk.states.is_spinning:
                disk.spin_up()

    def cold_home(self, uid: str) -> str:
        """Pure-function cold placement: no lookup table anywhere."""
        return self._cold_spaces[stable_hash(uid) % len(self._cold_spaces)]

    def _hot_extent(self, uid: str, size: int) -> ObjectRef:
        """The next hot-log extent (circular, per hot space).

        The tail moves only once the gateway admits the write to it.
        """
        space_id = self._hot_spaces[stable_hash(uid) % len(self._hot_spaces)]
        region = self._region_bytes[space_id]
        if size > region:
            raise TieringError(f"object {uid!r} ({size} bytes) exceeds hot log")
        tail = self._hot_tails[space_id]
        if tail + size > region:
            tail = 0  # circular log wrap; bounded staging keeps it safe
        return ObjectRef(space_id=space_id, offset=tail, size=size, object_id=uid)

    # -- writes (staging) -------------------------------------------------

    def write(self, uid: str, size: int) -> TieredObject:
        """Stage one archival write; ack at hot latency via completion.

        Raises :class:`StagingFullError` when the bounded buffer cannot
        absorb the write — backpressure, not unbounded queueing —
        :class:`TieringError` when the object cannot fit the hot log, and
        the gateway's :class:`~repro.gateway.GatewayError` when it
        refuses the write.  A refused write leaves the index, the stats,
        the staging bytes and the hot log as they were.
        """
        if uid in self._index:
            raise TieringError(f"duplicate write for uid {uid!r}")
        self.staging.reserve(size)
        try:
            hot_ref = self._hot_extent(uid, size)
        except TieringError:
            self.staging.release(size)
            raise
        obj = TieredObject(
            uid=uid,
            size=size,
            cold_space=self.cold_home(uid),
            state=TierState.STAGING,
            written_at=self.gateway.sim.now,
            hot_ref=hot_ref,
        )
        if self._tracer.enabled:
            obj.trace = self._tracer.start(
                "tiering.object",
                kind="object",
                uid=uid,
                size=size,
                cold_space=obj.cold_space,
            )
        try:
            request = self.gateway.submit_op(
                WriteObject(tenant=self.config.tenant, ref=hot_ref)
            )
        except GatewayError:
            # The reservation and the object's trace precede the
            # request (trace ids key the energy ledger's books), so a
            # refusal gives both back.
            self.staging.release(size)
            obj.trace.finish("rejected")
            raise
        self._index[uid] = obj
        self.stats.written += 1
        self._hot_tails[hot_ref.space_id] = hot_ref.offset + size
        request.trace.annotate(tier="hot", staged=True)
        epoch = self._epoch
        request.on_complete = lambda done, obj=obj: self._stage_done(
            obj, done, epoch
        )
        self._m_staged_bytes.set(float(self.staging.staged_bytes))
        return obj

    def _stage_done(
        self, obj: TieredObject, request: GatewayRequest, epoch: int
    ) -> None:
        now = self.gateway.sim.now
        if epoch != self._epoch:
            # Orphaned by a crash: the bytes are on the hot platter
            # regardless, so the media learns of them — recovery will
            # find and re-stage the object.  No soft state is touched.
            if request.failure is None and obj.hot_ref is not None:
                self._hot_media.setdefault(obj.hot_ref.space_id, {})[obj.uid] = obj
            return
        if request.failure is not None:
            obj.state = TierState.FAILED
            obj.failure = request.failure
            self.stats.stage_failures += 1
            self.staging.release(obj.size)
            self._m_staged_bytes.set(float(self.staging.staged_bytes))
            obj.trace.phase("stage")
            obj.trace.finish("failed")
            return
        obj.state = TierState.STAGED
        obj.acked_at = now
        assert obj.hot_ref is not None
        self._hot_media.setdefault(obj.hot_ref.space_id, {})[obj.uid] = obj
        self.staging.enqueue(obj)
        self.stats.staged += 1
        self._m_stage_latency.observe(now - obj.written_at)
        obj.trace.phase("stage")

    # -- reads ------------------------------------------------------------

    def read(self, uid: str) -> GatewayRequest:
        """Serve from the hot tier when resident, else from cold.

        Cold accesses feed the recency policy; a promotion verdict
        copies the object onto the hot log in the background (under
        the migration tenant) so repeat readers stop paying spin-ups.
        A read the gateway refuses raises before it is counted or
        reaches the policy.
        """
        obj = self._index.get(uid)
        if obj is None or obj.state is TierState.FAILED:
            raise ObjectMissingError(
                f"no placement for uid {uid!r} (crashed soft state needs recover())"
            )
        now = self.gateway.sim.now
        hot_ref: Optional[ObjectRef] = None
        if obj.state in (TierState.STAGING, TierState.STAGED, TierState.DEMOTING):
            hot_ref = obj.hot_ref
        elif obj.cache_ref is not None:
            hot_ref = obj.cache_ref
        if hot_ref is not None:
            request = self.gateway.submit_op(
                ReadObject(tenant=self.config.tenant, ref=hot_ref)
            )
            self.stats.hot_reads += 1
            self.policy.record_access(uid, now)
            request.trace.annotate(tier="hot")
            request.on_complete = self._read_done
            return request
        assert obj.state is TierState.COLD and obj.cold_ref is not None
        request = self.gateway.submit_op(
            ReadObject(tenant=self.config.tenant, ref=obj.cold_ref)
        )
        self.stats.cold_reads += 1
        request.trace.annotate(tier="cold")
        request.on_complete = self._read_done
        if self.policy.record_access(uid, now) and not obj.promote_inflight:
            self._promote(obj)
        return request

    def _read_done(self, request: GatewayRequest) -> None:
        if request.failure is not None:
            self.stats.read_failures += 1

    def residency(self, uid: str) -> str:
        """Which tier serves this uid right now: "hot" or "cold"."""
        obj = self._index.get(uid)
        if obj is None:
            raise ObjectMissingError(f"no placement for uid {uid!r}")
        if obj.state in (TierState.STAGING, TierState.STAGED, TierState.DEMOTING):
            return "hot"
        if obj.cache_ref is not None:
            return "hot"
        return "cold"

    # -- promotion / eviction ---------------------------------------------

    def _promote(self, obj: TieredObject) -> None:
        """Copy a hot-worthy cold object onto the hot log, background.

        A promotion the gateway refuses is dropped: it is background
        work, so the policy takes its verdict back and the object's next
        access asks again.
        """
        ref = self._hot_extent(obj.uid, obj.size)
        try:
            request = self.gateway.submit_op(
                WriteObject(tenant=self.config.migration_tenant, ref=ref)
            )
        except GatewayError:
            self.policy.withdraw(obj.uid)
            return
        obj.promote_inflight = True
        self._hot_tails[ref.space_id] = ref.offset + ref.size
        request.trace.annotate(tier="hot", background=True, kind_hint="promotion")
        epoch = self._epoch
        request.on_complete = lambda done, obj=obj, ref=ref: self._promote_done(
            obj, ref, done, epoch
        )

    def _promote_done(
        self, obj: TieredObject, ref: ObjectRef, request: GatewayRequest, epoch: int
    ) -> None:
        if epoch != self._epoch:
            # Orphaned by a crash: the cache copy landed on the hot
            # platter; recovery's cold-wins rule will reclaim it.
            if request.failure is None:
                obj.cache_ref = ref
                self._hot_media.setdefault(ref.space_id, {})[obj.uid] = obj
            return
        obj.promote_inflight = False
        if request.failure is not None:
            self.stats.promotion_failures += 1
            self.policy.withdraw(obj.uid)
            return
        obj.cache_ref = ref
        self._hot_media.setdefault(ref.space_id, {})[obj.uid] = obj
        self.stats.promotions += 1
        obj.trace.event("tiering.promoted", space=ref.space_id)

    def evict_idle(self) -> int:
        """Drop hot cache copies the recency policy has aged out.

        The cold copy was always authoritative, so eviction is pure
        bookkeeping — no I/O, no data movement.
        """
        evicted = 0
        for uid in self.policy.demotion_candidates(self.gateway.sim.now):
            obj = self._index.get(uid)
            if obj is None or obj.cache_ref is None:
                continue
            self._hot_media.get(obj.cache_ref.space_id, {}).pop(uid, None)
            obj.cache_ref = None
            evicted += 1
            self.stats.evictions += 1
            obj.trace.event("tiering.evicted")
        return evicted

    # -- demotion (the background flush path) ------------------------------

    def pending_demotion_bytes(self) -> int:
        return sum(
            self.staging.pending_bytes(space) for space in self._cold_spaces
        )

    def take_demotion_batch(self, space_id: str) -> Optional[GatewayRequest]:
        """Flush one cold disk's staged run as a single sequential write.

        Offsets are packed contiguously at the cold space's tail so the
        whole batch is one sequential pass — one spin-up amortized over
        every object in the run.  Submitted under the migration tenant;
        the objects stay hot-served until the write completes.
        """
        records = self.staging.take_batch(space_id, DEMOTION_BATCH_BYTES)
        if not records:
            return None
        total = sum(obj.size for obj in records)
        region = self._region_bytes[space_id]
        base = self._cold_tails[space_id]
        if base + total > region:
            self.staging.requeue(records)
            raise TieringError(f"cold space {space_id!r} exhausted")
        self._cold_tails[space_id] = base + total
        offset = base
        for obj in records:
            obj.state = TierState.DEMOTING
            obj.cold_ref = ObjectRef(
                space_id=space_id, offset=offset, size=obj.size, object_id=obj.uid
            )
            offset += obj.size
            obj.trace.phase("hot_residency")
        batch = _DemotionBatch(
            space_id=space_id, base_offset=base, extent=total, records=records
        )
        request = self.gateway.submit_op(
            WriteObject(
                tenant=self.config.migration_tenant,
                ref=ObjectRef(
                    space_id=space_id,
                    offset=base,
                    size=total,
                    object_id=f"demote:{space_id}+{base}",
                ),
            )
        )
        request.trace.annotate(background=True, kind_hint="demotion", objects=len(records))
        epoch = self._epoch
        request.on_complete = lambda done, batch=batch: self._demote_done(
            batch, done, epoch
        )
        self.inflight_demotions += 1
        self._inflight_spaces.append(space_id)
        self.stats.demotion_batches += 1
        self._m_batch_bytes.observe(float(total))
        return request

    def _demote_done(
        self, batch: _DemotionBatch, request: GatewayRequest, epoch: int
    ) -> None:
        if epoch != self._epoch:
            # Orphaned by a crash.  The sequential run still hit the
            # cold platter (the gateway finished it), but the commit —
            # log-head advance, staging release, index update — died
            # with the node.  Record only what is physically durable:
            # the cold copies.  The hot extents remain; recovery sees
            # both tiers and resolves the duplicates exactly-once.
            if request.failure is None:
                media = self._cold_media.setdefault(batch.space_id, {})
                for obj in batch.records:
                    media[obj.uid] = obj
            return
        self.inflight_demotions -= 1
        self._inflight_spaces.remove(batch.space_id)
        now = self.gateway.sim.now
        if request.failure is not None:
            self.stats.demotion_failures += 1
            for obj in batch.records:
                obj.state = TierState.STAGED
                obj.cold_ref = None
            self.staging.requeue(batch.records)
            return
        media = self._cold_media.setdefault(batch.space_id, {})
        for obj in batch.records:
            obj.state = TierState.COLD
            obj.demoted_at = now
            media[obj.uid] = obj
            if obj.hot_ref is not None:
                # Log-head advance: the staged extent is reclaimable
                # the moment the cold copy is durable.
                self._hot_media.get(obj.hot_ref.space_id, {}).pop(obj.uid, None)
                obj.hot_ref = None
            self.staging.release(obj.size)
            self.stats.demoted += 1
            self.stats.demoted_bytes += obj.size
            obj.trace.phase("demote")
            obj.trace.finish("demoted")
        self._m_staged_bytes.set(float(self.staging.staged_bytes))

    # -- crash / recovery (the no-metadata-DB proof) ------------------------

    def durable_tiers(self, uid: str) -> List[str]:
        """Which tiers hold a durable copy right now (audit helper)."""
        tiers = []
        if any(uid in media for media in self._hot_media.values()):
            tiers.append("hot")
        if any(uid in media for media in self._cold_media.values()):
            tiers.append("cold")
        return tiers

    @staticmethod
    def _extent_in(obj: TieredObject, space_id: str) -> int:
        """End offset of the object's durable extent within ``space_id``."""
        for ref in (obj.hot_ref, obj.cache_ref, obj.cold_ref):
            if ref is not None and ref.space_id == space_id:
                return ref.offset + ref.size
        return obj.size

    def inflight_spaces(self) -> List[str]:
        """Cold spaces with a demotion batch currently in flight."""
        return list(self._inflight_spaces)

    def drop_soft_state(self) -> None:
        """Crash the tiering node: index, staging and policy are gone.

        In-flight completions are orphaned (epoch bump): their data
        still lands on the modelled platters, but they no longer touch
        soft state — the reborn node learns placement from media scans
        alone.
        """
        self._epoch += 1
        self._index.clear()
        self.staging.reset()
        self.policy.reset()
        self.inflight_demotions = 0
        self._inflight_spaces = []
        self._pending_scans = 0
        self._scan_found_hot = {}
        self._scan_found_cold = {}
        self.stats.soft_state_drops += 1

    def recover(self) -> List[GatewayRequest]:
        """Rebuild placement from media scans alone.

        One sequential read per tier extent (migration tenant — the
        scans are background work too); when every scan lands, each
        discovered object resolves to exactly one tier: cold wins over
        a hot twin (the demotion's data landed even if its commit was
        lost), hot-only objects re-stage and owe a fresh demotion.
        """
        if self._pending_scans:
            raise TieringError("recovery already in progress")
        self._scan_found_hot = {}
        self._scan_found_cold = {}
        requests: List[GatewayRequest] = []
        plans = [
            (self._hot_media, self._scan_found_hot),
            (self._cold_media, self._scan_found_cold),
        ]
        for media_map, found in plans:
            for space_id in sorted(media_map):
                records = media_map[space_id]
                if not records:
                    continue
                extent = max(
                    self._extent_in(obj, space_id) for obj in records.values()
                )
                request = self.gateway.submit_op(
                    ReadObject(
                        tenant=self.config.migration_tenant,
                        ref=ObjectRef(
                            space_id=space_id,
                            offset=0,
                            size=extent,
                            object_id=f"{space_id}@scan",
                        ),
                    )
                )
                request.trace.annotate(background=True, kind_hint="recovery_scan")
                snapshot = dict(records)
                epoch = self._epoch
                request.on_complete = (
                    lambda done, found=found, snapshot=snapshot: self._scan_done(
                        found, snapshot, done, epoch
                    )
                )
                self._pending_scans += 1
                requests.append(request)
        if not requests:
            self._rebuild()
        return requests

    def _scan_done(
        self,
        found: Dict[str, TieredObject],
        snapshot: Dict[str, TieredObject],
        request: GatewayRequest,
        epoch: int,
    ) -> None:
        if epoch != self._epoch:
            return
        self._pending_scans -= 1
        if request.failure is None:
            self.stats.recovery_scans += 1
            found.update(snapshot)
        if self._pending_scans == 0:
            self._rebuild()

    def _rebuild(self) -> None:
        """Resolve scan results into an exactly-once placement index."""
        for uid in sorted(self._scan_found_cold):
            obj = self._scan_found_cold[uid]
            hot_twin = self._scan_found_hot.pop(uid, None)
            if hot_twin is not None:
                # Demotion data landed before the crash: cold wins,
                # the hot extent is reclaimed.
                if obj.hot_ref is not None:
                    self._hot_media.get(obj.hot_ref.space_id, {}).pop(uid, None)
                if obj.cache_ref is not None:
                    self._hot_media.get(obj.cache_ref.space_id, {}).pop(uid, None)
                self.stats.recovered_duplicates += 1
            obj.state = TierState.COLD
            obj.hot_ref = None
            obj.cache_ref = None
            obj.promote_inflight = False
            self._index[uid] = obj
        for uid in sorted(self._scan_found_hot):
            obj = self._scan_found_hot[uid]
            # Durable only on the hot log: still staged, owes a demotion.
            obj.state = TierState.STAGED
            obj.cold_ref = None
            obj.cache_ref = None
            obj.promote_inflight = False
            self.staging.reserve(obj.size)
            self.staging.enqueue(obj)
            self._index[uid] = obj
            self.stats.recovered_hot_only += 1
        self._scan_found_hot = {}
        self._scan_found_cold = {}
        self._m_staged_bytes.set(float(self.staging.staged_bytes))

    # -- accounting --------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        stats = self.stats
        return {
            "written": stats.written,
            "staged": stats.staged,
            "stage_failures": stats.stage_failures,
            "staging_overflows": self.staging.overflows,
            "staged_bytes": self.staging.staged_bytes,
            "pending_demotion_bytes": self.pending_demotion_bytes(),
            "demotion_batches": stats.demotion_batches,
            "demotion_failures": stats.demotion_failures,
            "demoted": stats.demoted,
            "demoted_bytes": stats.demoted_bytes,
            "promotions": stats.promotions,
            "evictions": stats.evictions,
            "hot_reads": stats.hot_reads,
            "cold_reads": stats.cold_reads,
            "read_failures": stats.read_failures,
            "recovery_scans": stats.recovery_scans,
            "recovered_hot_only": stats.recovered_hot_only,
            "recovered_duplicates": stats.recovered_duplicates,
            "soft_state_drops": stats.soft_state_drops,
            "inflight_demotions": self.inflight_demotions,
            "hot_spaces": len(self._hot_spaces),
            "cold_spaces": len(self._cold_spaces),
        }
