"""Replay fingerprinting for simulations.

:class:`EventDigest` folds every popped kernel event into a running
SHA-256, so two runs can be compared for exact replay equality without
storing their event streams.  Telemetry (counters, gauges, request
traces) lives in :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Any, Iterator

from repro.sim.kernel import SCHEDULERS, HeapScheduler, observe_pops, use_scheduler

__all__ = ["EventDigest"]


class EventDigest:
    """Streaming fingerprint of a kernel's event execution order.

    Every popped event folds its ``(time, priority, seq)`` triple
    into a running SHA-256.  Identical digests mean the runs popped
    exactly the same events in exactly the same order — the strongest
    replay-equality check we have, without storing millions of
    records.  :meth:`under` covers every simulator built inside a block.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events = 0

    @contextmanager
    def under(self) -> Iterator["EventDigest"]:
        """Fold every event popped by simulators built in the block.

        Registers a heap queue with its pops observed
        (:func:`~repro.sim.kernel.observe_pops`) in
        :data:`~repro.sim.SCHEDULERS` and selects it for the block, so a
        run that builds many simulators is covered without handing the
        digest to each.  A simulator keeps its queue after the block
        ends, so its later runs still fold.
        """
        name = "digest"
        SCHEDULERS[name] = observe_pops(HeapScheduler, self._fold)
        try:
            with use_scheduler(name):
                yield self
        finally:
            del SCHEDULERS[name]

    def _fold(self, item: Any) -> Any:
        self._hash.update(f"{item[0]!r}|{item[1]}|{item[2]}\n".encode())
        self.events += 1
        return item

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
