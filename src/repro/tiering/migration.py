"""Background migration: demotion packed into idle watts.

The orchestrator is the tiering layer's only always-on activity, and
it runs entirely on the kernel's allocation-free deferred-callback
path — one self-rescheduling callable, no Timeout or process object
per check.

Each round it decides whether background data movement is welcome:

* **Cold-read pressure** — if foreground tenants (anyone but the
  migration tenant) have queued work past ``pressure_queue_depth``,
  the round is skipped.  Demotion is deadline-irrelevant; user reads
  are not.
* **Idle watts** — a demotion batch dispatches only when the
  :class:`~repro.gateway.scheduler.PowerAccountant` confirms the
  target cold disk fits under the budget *right now*
  (``can_afford``).  The accountant thereby packs migration into
  otherwise-wasted headroom instead of queueing it against
  foreground spin-ups.

When both gates open, the cold space owed the most bytes flushes one
sequential batch (FIFO within the space), up to
``max_inflight_demotions`` batches in flight.  The same round also
asks the recency policy for idle hot residents and drops their cache
copies (free — the cold copy is authoritative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

__all__ = ["MigrationOrchestrator", "MigrationStats"]

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.tiering.store import TieredStore


@dataclass
class MigrationStats:
    rounds: int = 0
    #: Rounds skipped because foreground queues were deep.
    pressure_pauses: int = 0
    #: Batch dispatches withheld because the budget had no headroom.
    power_skips: int = 0
    #: Spaces left to accumulate because neither gate (min bytes,
    #: max age) was open yet.
    accumulating_skips: int = 0


class MigrationOrchestrator:
    """Deferred-callback loop driving demotion and cache eviction."""

    def __init__(self, store: "TieredStore") -> None:
        self.store = store
        self.gateway = store.gateway
        self.sim = store.gateway.sim
        self.stats = MigrationStats()
        self.sim.metrics.publish("migration", self.stats)

    def start(self) -> None:
        """Start the loop; it runs for the life of the simulation."""
        self.sim.defer(self.store.config.demotion_check_interval, self._tick)

    def _tick(self) -> None:
        self._round()
        self.sim.defer(self.store.config.demotion_check_interval, self._tick)

    def foreground_depth(self) -> int:
        """Queued plus in-flight requests of every non-migration tenant.

        In-flight work counts: a cold disk actively serving user reads
        is exactly the moment background demotion should stand down.
        """
        depths = self.gateway.queue.depths()
        migration = self.store.config.migration_tenant
        depth = sum(depths[name] for name in depths if name != migration)
        for batch in self.gateway._in_flight.values():
            depth += sum(1 for request in batch if request.tenant != migration)
        return depth

    def _round(self) -> None:
        self.stats.rounds += 1
        store = self.store
        if self.foreground_depth() > store.config.pressure_queue_depth:
            self.stats.pressure_pauses += 1
            return
        accountant = self.gateway.power_accountant
        now = self.sim.now
        for space_id in store.staging.pending_spaces():
            if store.inflight_demotions >= store.config.max_inflight_demotions:
                break
            if not self._flush_due(space_id, now):
                self.stats.accumulating_skips += 1
                continue
            disk_id = store._disk_of_space[space_id]
            if not accountant.can_afford(disk_id):
                self.stats.power_skips += 1
                continue
            store.take_demotion_batch(space_id)
        store.evict_idle()

    def _flush_due(self, space_id: str, now: float) -> bool:
        """Batch-discipline gate: flush a space only once it owes
        ``demotion_min_batch_bytes`` or its oldest staged write has
        aged past ``demotion_max_age_seconds`` — one spin-up amortized
        over a run, never paid per trickling object."""
        staging = self.store.staging
        config = self.store.config
        if staging.pending_bytes(space_id) >= config.demotion_min_batch_bytes:
            return True
        return (
            now - staging.oldest_written_at(space_id)
            >= config.demotion_max_age_seconds
        )
