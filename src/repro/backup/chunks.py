"""Synthetic content-defined chunking for the backup overlay.

The simulation does not move real bytes, so a file's *content* is
described by a seed; chunk fingerprints are derived deterministically
from (seed, chunk index).  Editing a file changes its seed on the
edited region only, so incremental backups dedup unchanged chunks —
the same behaviour a rolling-hash chunker gives Venti-class systems.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, List

from repro.units import MiB

__all__ = ["Chunk", "chunk_file", "FileVersion"]

DEFAULT_CHUNK_BYTES = MiB


@dataclass(frozen=True)
class Chunk:
    """One content-addressed chunk."""

    fingerprint: str
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"chunk size must be positive, got {self.size}")


@dataclass(frozen=True)
class FileVersion:
    """A file at one point in time: a name, size and content seed."""

    name: str
    size: int
    content_seed: int

    def edited(self, new_seed: int) -> "FileVersion":
        return FileVersion(self.name, self.size, new_seed)


def chunk_file(
    version: FileVersion, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> List[Chunk]:
    """Deterministic chunk list for a file version."""
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    chunks: List[Chunk] = []
    remaining = version.size
    index = 0
    while remaining > 0:
        size = min(chunk_bytes, remaining)
        digest = hashlib.sha256(
            f"{version.name}:{version.content_seed}:{index}".encode()
        ).hexdigest()[:32]
        chunks.append(Chunk(fingerprint=digest, size=size))
        remaining -= size
        index += 1
    return chunks
