"""Replay fingerprinting for simulations.

:class:`EventDigest` folds every processed kernel event into a running
SHA-256, so two runs can be compared for exact replay equality without
storing their event streams.  Telemetry (counters, gauges, request
traces) lives in :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.kernel import Simulator

__all__ = ["EventDigest"]


class EventDigest:
    """Streaming fingerprint of a kernel's event execution order.

    Attach to one or more simulators; every processed event folds its
    ``(time, priority, seq)`` triple into a running SHA-256.  Identical
    digests mean the runs popped exactly the same events in exactly the
    same order — the strongest replay-equality check we have, without
    storing millions of records.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events = 0

    def attach(self, sim: "Simulator") -> "EventDigest":
        sim.add_step_hook(self.record)
        return self

    def record(self, time: float, priority: int, seq: int) -> None:
        self._hash.update(f"{time!r}|{priority}|{seq}\n".encode())
        self.events += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
