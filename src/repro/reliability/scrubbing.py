"""Latent sector errors and scrubbing (§VIII, citing Schroeder et al.).

Long-term disk storage silently develops *latent sector errors* (LSEs):
regions that fail on read but are only discovered when someone reads
them.  Periodic scrubbing — sequentially reading the whole disk —
bounds the window during which an LSE can hide and collide with a disk
failure elsewhere.

This module adds an LSE overlay for :class:`SimulatedDisk` plus a
scrubber process, so availability studies and the backup overlay can
quantify scrub-interval trade-offs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.disk.device import IoRequest, SimulatedDisk
from repro.sim import Event, Simulator
from repro.sim.rng import RngRegistry
from repro.units import MiB

__all__ = ["LatentErrorModel", "MediaError", "Scrubber"]

YEAR = 365.0 * 24 * 3600.0

#: Bytes one scrub read covers.
SCRUB_CHUNK_BYTES = 64 * MiB


class MediaError(Exception):
    """A read touched a latent sector error."""


@dataclass
class LatentErrorModel:
    """Tracks LSE regions on one disk.

    ``annual_lse_rate`` is the expected number of new LSE regions per
    disk-year (field studies report a wide range; ~1/year for nearline
    disks is a common planning figure).  Each LSE affects one region of
    ``region_bytes``.
    """

    sim: Simulator
    disk: SimulatedDisk
    rng: RngRegistry
    annual_lse_rate: float = 1.0
    region_bytes: int = 8 * MiB
    errors: Set[int] = field(default_factory=set)  # region indices
    detected: List[Tuple[float, int]] = field(default_factory=list)
    repaired: List[Tuple[float, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._random = self.rng.stream(f"lse:{self.disk.disk_id}")
        self._regions = max(1, self.disk.spec.capacity_bytes // self.region_bytes)
        self.sim.process(self._developer())

    @property
    def _resource(self) -> str:
        """Race-detector tag: the LSE set is shared by the developer
        process, application reads, and the scrubber."""
        return f"lse:{self.disk.disk_id}"

    def _developer(self) -> Generator[Event, None, None]:
        """Poisson arrival of new latent errors."""
        mean = YEAR / self.annual_lse_rate
        while True:
            gap = -mean * math.log(1.0 - self._random.random())
            yield self.sim.timeout(gap)
            self.sim.touch_resource(self._resource, write=True)
            self.errors.add(self._random.randrange(self._regions))

    # -- read-path hooks ----------------------------------------------------

    def regions_of(self, offset: int, size: int) -> range:
        first = offset // self.region_bytes
        last = (offset + size - 1) // self.region_bytes
        return range(first, last + 1)

    def check_read(self, offset: int, size: int) -> None:
        """Raise :class:`MediaError` if the read touches an LSE."""
        self.sim.touch_resource(self._resource, write=False)
        for region in self.regions_of(offset, size):
            if region in self.errors:
                self.detected.append((self.sim.now, region))
                raise MediaError(
                    f"{self.disk.disk_id}: latent sector error in region {region}"
                )

    def repair(self, region: int) -> None:
        """Rewrite from redundancy: the region becomes clean again."""
        self.sim.touch_resource(self._resource, write=True)
        if region in self.errors:
            self.errors.discard(region)
            self.repaired.append((self.sim.now, region))

    def read(self, offset: int, size: int) -> Generator[Event, None, float]:
        """A guarded read: disk service time + LSE check."""
        service = yield self.disk.submit(
            IoRequest(offset=offset, size=size, is_read=True)
        )
        self.check_read(offset, size)
        return service


class Scrubber:
    """Periodic sequential verification of a disk (one pass per interval).

    On detection, the scrubber invokes a repair callback (the upper
    layer's redundancy) and rewrites the region.  The headline metric is
    the *detection latency*: how long an LSE existed before a scrub (or
    an application read) found it.
    """

    def __init__(
        self,
        sim: Simulator,
        model: LatentErrorModel,
        scrub_interval: float = 14 * 24 * 3600.0,
        scan_bytes: Optional[int] = None,
    ):
        self.sim = sim
        self.model = model
        self.scrub_interval = scrub_interval
        # Scanning a whole 3 TB disk is millions of events; studies can
        # bound the scanned extent to the allocated region.
        self.scan_bytes = scan_bytes or model.disk.spec.capacity_bytes
        self.passes_completed = 0
        self.errors_found = 0
        self._process = sim.process(self._loop())

    def _loop(self) -> Generator[Event, None, None]:
        while True:
            yield self.sim.timeout(self.scrub_interval)
            yield from self._scrub_pass()
            self.passes_completed += 1

    def _scrub_pass(self) -> Generator[Event, None, None]:
        offset = 0
        while offset < self.scan_bytes:
            size = min(SCRUB_CHUNK_BYTES, self.scan_bytes - offset)
            yield self.model.disk.submit(
                IoRequest(offset=offset, size=size, is_read=True)
            )
            for region in self.model.regions_of(offset, size):
                if region in self.model.errors:
                    self.model.detected.append((self.sim.now, region))
                    self.errors_found += 1
                    # Repair from redundancy (simulated as one rewrite).
                    yield self.model.disk.submit(
                        IoRequest(
                            offset=region * self.model.region_bytes,
                            size=min(self.model.region_bytes, self.scan_bytes),
                            is_read=False,
                        )
                    )
                    self.model.repair(region)
            offset += size
