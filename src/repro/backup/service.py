"""A nightly-backup service over UStore: synthetic datasets + schedule.

Generates a synthetic file population, mutates a fraction of it between
backup rounds, and drives :class:`~repro.backup.store.ArchiveStore`
snapshots — the archival workload of §I ("accessed in large batches on
a predictable schedule").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from repro.backup.chunks import FileVersion
from repro.backup.store import ArchiveStore, SnapshotStats
from repro.cluster.deployment import Deployment
from repro.sim import Event
from repro.sim.rng import RngRegistry
from repro.units import MiB

__all__ = ["BackupService", "synthetic_dataset"]


def synthetic_dataset(
    rng: RngRegistry,
    num_files: int = 50,
    mean_file_mib: float = 8.0,
    stream: str = "dataset",
) -> List[FileVersion]:
    """A plausible file-size population (log-ish spread around the mean)."""
    rand = rng.stream(stream)
    files: List[FileVersion] = []
    for index in range(num_files):
        scale = rand.choice((0.25, 0.5, 1.0, 1.0, 2.0, 4.0))
        size = max(1, int(mean_file_mib * scale * MiB))
        files.append(
            FileVersion(name=f"file{index:04d}", size=size, content_seed=index)
        )
    return files


class BackupService:
    """Schedules incremental snapshots of a mutating dataset."""

    def __init__(
        self,
        deployment: Deployment,
        store: ArchiveStore,
        rng: RngRegistry,
        change_fraction: float = 0.1,
    ):
        if not 0.0 <= change_fraction <= 1.0:
            raise ValueError(f"change_fraction must be in [0,1], got {change_fraction}")
        self.deployment = deployment
        self.store = store
        self.change_fraction = change_fraction
        self._random = rng.stream("backup-service")
        self._seed_counter = 10_000
        self.dataset: List[FileVersion] = []

    def load_dataset(self, files: List[FileVersion]) -> None:
        self.dataset = list(files)

    def mutate_dataset(self) -> int:
        """Edit a random ``change_fraction`` of files; returns how many."""
        changed = 0
        for index, version in enumerate(self.dataset):
            if self._random.random() < self.change_fraction:
                self._seed_counter += 1
                self.dataset[index] = version.edited(self._seed_counter)
                changed += 1
        return changed

    def run_rounds(
        self, rounds: int, interval_seconds: float = 24 * 3600.0
    ) -> Generator[Event, None, List[SnapshotStats]]:
        """Take ``rounds`` snapshots, mutating the dataset in between."""
        results: List[SnapshotStats] = []
        for round_index in range(rounds):
            stats = yield from self.store.snapshot(
                f"snap-{round_index:03d}", self.dataset
            )
            results.append(stats)
            if round_index + 1 < rounds:
                self.mutate_dataset()
                yield self.deployment.sim.timeout(interval_seconds)
        return results


def provision_archive(
    deployment: Deployment,
    num_spaces: int = 2,
    space_bytes: int = 4096 * MiB,
    service: str = "backup",
) -> Generator[Event, None, ArchiveStore]:
    """Allocate and mount UStore spaces for an archive store."""
    client = deployment.new_client(f"{service}-client", service=service)
    spaces = []
    used_disks: List[str] = []
    for _ in range(num_spaces):
        info = yield from client.allocate(space_bytes, exclude_disks=used_disks)
        from repro.cluster.namespace import parse_space_id

        used_disks.append(parse_space_id(info["space_id"])[1])
        space = yield from client.mount(info["space_id"])
        spaces.append(space)
    return ArchiveStore(deployment.sim, spaces, space_bytes)
