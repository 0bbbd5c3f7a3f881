"""A Venti-style write-once archive store on UStore spaces.

The paper positions UStore as the raw-capacity substrate for upper
layer services like backup (§I, §IV); Venti [4] is its canonical
archival citation.  :class:`ArchiveStore` implements that layer: an
append-only chunk log across one or more mounted UStore spaces, a
fingerprint index for deduplication, and snapshot manifests.

Chunks are written sequentially (archival workloads are the fabric's
sweet spot: Table II shows ~185 MB/s sequential per disk), and reads of
deduplicated chunks are random I/O against the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.backup.chunks import DEFAULT_CHUNK_BYTES, Chunk, FileVersion, chunk_file
from repro.cluster.clientlib import MountedSpace
from repro.sim import Event, Simulator

__all__ = ["ArchiveStore", "ChunkLocation", "SnapshotStats"]


@dataclass(frozen=True)
class ChunkLocation:
    space_index: int
    offset: int
    size: int


@dataclass
class SnapshotStats:
    """Outcome of one snapshot."""

    snapshot_id: str
    logical_bytes: int = 0
    unique_bytes: int = 0
    chunks_total: int = 0
    chunks_new: int = 0
    write_seconds: float = 0.0

    @property
    def dedup_ratio(self) -> float:
        """Logical data per byte actually stored (>= 1.0)."""
        return self.logical_bytes / self.unique_bytes if self.unique_bytes else float("inf")


class ArchiveStore:
    """Append-only, deduplicated chunk store over mounted spaces."""

    def __init__(self, sim: Simulator, spaces: List[MountedSpace], space_bytes: int):
        if not spaces:
            raise ValueError("need at least one backing space")
        self.sim = sim
        self.spaces = spaces
        self.space_bytes = space_bytes
        self._index: Dict[str, ChunkLocation] = {}
        self._arena = 0
        self._write_offset = 0
        self.snapshots: Dict[str, List[Tuple[str, List[Chunk]]]] = {}
        self.stats_history: List[SnapshotStats] = []

    # -- space management ------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        return sum(loc.size for loc in self._index.values())

    def _allot(self, size: int) -> ChunkLocation:
        if self._write_offset + size > self.space_bytes:
            self._arena += 1
            self._write_offset = 0
            if self._arena >= len(self.spaces):
                raise RuntimeError("archive store out of space")
        location = ChunkLocation(self._arena, self._write_offset, size)
        self._write_offset += size
        return location

    # -- snapshots ---------------------------------------------------------

    def snapshot(
        self,
        snapshot_id: str,
        files: List[FileVersion],
    ) -> Generator[Event, None, SnapshotStats]:
        """Back up ``files``; only chunks never seen before hit disks."""
        if snapshot_id in self.snapshots:
            raise ValueError(f"duplicate snapshot id {snapshot_id!r}")
        stats = SnapshotStats(snapshot_id=snapshot_id)
        manifest: List[Tuple[str, List[Chunk]]] = []
        start = self.sim.now
        for version in files:
            chunks = chunk_file(version, DEFAULT_CHUNK_BYTES)
            manifest.append((version.name, chunks))
            for chunk in chunks:
                stats.chunks_total += 1
                stats.logical_bytes += chunk.size
                if chunk.fingerprint in self._index:
                    continue  # deduplicated: no I/O at all
                location = self._allot(chunk.size)
                yield from self.spaces[location.space_index].write(
                    location.offset, location.size
                )
                self._index[chunk.fingerprint] = location
                stats.chunks_new += 1
                stats.unique_bytes += chunk.size
        stats.write_seconds = self.sim.now - start
        self.snapshots[snapshot_id] = manifest
        self.stats_history.append(stats)
        return stats

    def restore(
        self, snapshot_id: str, names: Optional[List[str]] = None
    ) -> Generator[Event, None, Dict[str, int]]:
        """Read every chunk of a snapshot (optionally a subset of files)."""
        manifest = self.snapshots.get(snapshot_id)
        if manifest is None:
            raise KeyError(f"unknown snapshot {snapshot_id!r}")
        wanted = set(names) if names is not None else None
        restored = 0
        chunks_read = 0
        start = self.sim.now
        for name, chunks in manifest:
            if wanted is not None and name not in wanted:
                continue
            for chunk in chunks:
                location = self._index[chunk.fingerprint]
                yield from self.spaces[location.space_index].read(
                    location.offset, location.size
                )
                restored += chunk.size
                chunks_read += 1
        return {
            "bytes_restored": restored,
            "chunks_read": chunks_read,
            "seconds": self.sim.now - start,
        }
