"""Synthetic cold/archival access traces (§I's workload taxonomy).

The paper distinguishes *cold* data (rare, interactive reads that want
seconds-level latency — old emails, shared photos) from *archival* data
(large, scheduled batches — backups, system logs).  These generators
produce request streams with those shapes for the power-management and
example scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.sim.rng import RngRegistry
from repro.units import GiB, MiB

__all__ = ["AccessEvent", "archival_batch_trace", "cold_read_trace"]


@dataclass(frozen=True)
class AccessEvent:
    """One client request against a space."""

    time: float
    offset: int
    size: int
    is_read: bool


def cold_read_trace(
    rng: RngRegistry,
    duration: float,
    mean_interarrival: float = 600.0,
    object_size: int = 4 * MiB,
    region_bytes: int = 10 * GiB,
    stream: str = "cold",
) -> List[AccessEvent]:
    """Poisson arrivals of small random reads (cold data, §I).

    Default: one read every ten minutes on average — rare enough that a
    spun-down disk pays a spin-up on most accesses, which is exactly
    the trade-off the adaptive policy ablation explores.
    """
    rand = rng.stream(stream)
    events: List[AccessEvent] = []
    t = 0.0
    blocks = max(1, region_bytes // object_size)
    while True:
        t += -mean_interarrival * math.log(1.0 - rand.random())
        if t >= duration:
            break
        events.append(
            AccessEvent(
                time=t,
                offset=rand.randrange(blocks) * object_size,
                size=object_size,
                is_read=True,
            )
        )
    return events


def archival_batch_trace(
    duration: float,
    batch_interval: float = 24 * 3600.0,
    batch_bytes: int = 64 * GiB,
    write_size: int = 4 * MiB,
    start_offset: int = 0,
    first_batch_at: Optional[float] = None,
) -> List[AccessEvent]:
    """Scheduled sequential write bursts (archival data, §I).

    Batches of large sequential writes arrive on a fixed schedule (e.g.
    a nightly backup); between batches the disk is completely idle.
    """
    events: List[AccessEvent] = []
    offset = start_offset
    t = batch_interval if first_batch_at is None else first_batch_at
    while t < duration:
        remaining = batch_bytes
        while remaining > 0:
            size = min(write_size, remaining)
            events.append(AccessEvent(time=t, offset=offset, size=size, is_read=False))
            offset += size
            remaining -= size
        t += batch_interval
    return events
