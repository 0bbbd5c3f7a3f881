"""Replay fingerprinting for simulations.

:class:`EventDigest` folds every processed kernel event into a running
SHA-256, so two runs can be compared for exact replay equality without
storing their event streams.  Telemetry (counters, gauges, request
traces) lives in :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Any, Iterator

from repro.sim.kernel import SCHEDULERS, Simulator, use_scheduler

__all__ = ["EventDigest"]


class EventDigest:
    """Streaming fingerprint of a kernel's event execution order.

    Every processed event folds its ``(time, priority, seq)`` triple
    into a running SHA-256.  Identical digests mean the runs popped
    exactly the same events in exactly the same order — the strongest
    replay-equality check we have, without storing millions of
    records.  :meth:`attach` covers one simulator; :meth:`under` covers
    every simulator built inside a block.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events = 0

    def attach(self, sim: Simulator) -> "EventDigest":
        sim.add_step_hook(self.record)
        return self

    @contextmanager
    def under(self, scheduler: str) -> Iterator["EventDigest"]:
        """Fold every event popped by simulators built in the block.

        Registers a subclass of the ``scheduler`` queue in
        :data:`~repro.sim.SCHEDULERS` whose ``pop`` folds each item,
        and makes it the default scheduler for the block, so a run that
        builds many simulators is covered without handing the digest to
        each.  Every pop is a processed event, so the digest equals one
        taken with :meth:`attach` on each simulator in turn.
        """
        queue_class = type(SCHEDULERS[scheduler]())
        record = self.record

        def pop(queue: Any) -> Any:
            item = queue_class.pop(queue)
            record(item[0], item[1], item[2])
            return item

        name = f"digest:{scheduler}"
        SCHEDULERS[name] = type(
            f"Digest{queue_class.__name__}", (queue_class,), {"pop": pop}
        )
        try:
            with use_scheduler(name):
                yield self
        finally:
            del SCHEDULERS[name]

    def record(self, time: float, priority: int, seq: int) -> None:
        self._hash.update(f"{time!r}|{priority}|{seq}\n".encode())
        self.events += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
