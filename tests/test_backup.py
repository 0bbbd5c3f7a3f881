"""Tests for the deduplicating backup overlay."""

import pytest

from repro.backup import (
    ArchiveStore,
    BackupService,
    FileVersion,
    chunk_file,
    provision_archive,
    synthetic_dataset,
)
from repro.cluster import build_deployment
from repro.sim import RngRegistry
from repro.units import MiB


@pytest.fixture(scope="module")
def stack():
    dep = build_deployment()
    dep.settle(15.0)
    store = dep.sim.run_until_event(
        dep.sim.process(provision_archive(dep, num_spaces=2, space_bytes=1024 * MiB))
    )
    return dep, store


class TestChunking:
    def test_chunk_count_and_sizes(self):
        version = FileVersion("f", 5 * MiB + 17, content_seed=1)
        chunks = chunk_file(version, chunk_bytes=1 * MiB)
        assert len(chunks) == 6
        assert sum(c.size for c in chunks) == version.size
        assert chunks[-1].size == 17

    def test_chunks_deterministic(self):
        version = FileVersion("f", 3 * MiB, content_seed=7)
        assert chunk_file(version) == chunk_file(version)

    def test_edit_changes_fingerprints(self):
        before = chunk_file(FileVersion("f", 3 * MiB, content_seed=1))
        after = chunk_file(FileVersion("f", 3 * MiB, content_seed=2))
        assert all(a.fingerprint != b.fingerprint for a, b in zip(before, after))

    def test_different_files_do_not_collide(self):
        a = chunk_file(FileVersion("a", 1 * MiB, content_seed=1))
        b = chunk_file(FileVersion("b", 1 * MiB, content_seed=1))
        assert a[0].fingerprint != b[0].fingerprint

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chunk_file(FileVersion("f", 1 * MiB, 0), chunk_bytes=0)


class TestArchiveStore:
    def test_first_snapshot_writes_everything(self, stack):
        dep, store = stack
        files = [FileVersion(f"a{i}", 4 * MiB, content_seed=i) for i in range(4)]

        def scenario():
            return (yield from store.snapshot("s-first", files))

        stats = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert stats.chunks_new == stats.chunks_total == 16
        assert stats.unique_bytes == stats.logical_bytes == 16 * MiB
        assert stats.dedup_ratio == 1.0

    def test_unchanged_snapshot_is_free(self, stack):
        dep, store = stack
        files = [FileVersion(f"a{i}", 4 * MiB, content_seed=i) for i in range(4)]

        def scenario():
            return (yield from store.snapshot("s-repeat", files))

        stats = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert stats.chunks_new == 0
        assert stats.unique_bytes == 0
        assert stats.dedup_ratio == float("inf")

    def test_partial_change_writes_only_delta(self, stack):
        dep, store = stack
        files = [FileVersion(f"a{i}", 4 * MiB, content_seed=i) for i in range(4)]
        files[0] = files[0].edited(999)

        def scenario():
            return (yield from store.snapshot("s-delta", files))

        stats = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert stats.chunks_new == 4  # only the edited file's chunks
        assert stats.unique_bytes == 4 * MiB

    def test_restore_reads_all_chunks(self, stack):
        dep, store = stack

        def scenario():
            return (yield from store.restore("s-first"))

        result = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert result["bytes_restored"] == 16 * MiB
        assert result["chunks_read"] == 16

    def test_restore_subset(self, stack):
        dep, store = stack

        def scenario():
            return (yield from store.restore("s-first", names=["a0"]))

        result = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert result["bytes_restored"] == 4 * MiB

    def test_duplicate_snapshot_id_rejected(self, stack):
        dep, store = stack

        def scenario():
            yield from store.snapshot("s-first", [])

        with pytest.raises(ValueError):
            dep.sim.run_until_event(dep.sim.process(scenario()))

    def test_unknown_snapshot_restore(self, stack):
        dep, store = stack

        def scenario():
            yield from store.restore("nope")

        with pytest.raises(KeyError):
            dep.sim.run_until_event(dep.sim.process(scenario()))

    def test_out_of_space(self):
        dep = build_deployment()
        dep.settle(15.0)
        store = dep.sim.run_until_event(
            dep.sim.process(provision_archive(dep, num_spaces=1, space_bytes=8 * MiB))
        )
        files = [FileVersion("big", 32 * MiB, content_seed=0)]

        def scenario():
            yield from store.snapshot("s", files)

        with pytest.raises(RuntimeError, match="out of space"):
            dep.sim.run_until_event(dep.sim.process(scenario()))


class TestBackupService:
    def test_incremental_rounds_dedup(self):
        dep = build_deployment()
        dep.settle(15.0)
        store = dep.sim.run_until_event(
            dep.sim.process(provision_archive(dep, num_spaces=2, space_bytes=2048 * MiB))
        )
        rng = RngRegistry(5)
        service = BackupService(dep, store, rng, change_fraction=0.2)
        service.load_dataset(synthetic_dataset(rng, num_files=20, mean_file_mib=4.0))

        def scenario():
            return (yield from service.run_rounds(3, interval_seconds=60.0))

        rounds = dep.sim.run_until_event(dep.sim.process(scenario()))
        assert len(rounds) == 3
        assert rounds[0].dedup_ratio == 1.0
        # Later rounds write much less than the logical dataset.
        for stats in rounds[1:]:
            assert stats.unique_bytes < 0.6 * stats.logical_bytes

    def test_mutate_fraction(self):
        dep = build_deployment()
        rng = RngRegistry(5)
        store = ArchiveStore.__new__(ArchiveStore)  # not used by mutate
        service = BackupService(dep, store, rng, change_fraction=0.5)
        service.load_dataset(synthetic_dataset(rng, num_files=100))
        changed = service.mutate_dataset()
        assert 25 <= changed <= 75

    def test_invalid_change_fraction(self):
        dep = build_deployment()
        with pytest.raises(ValueError):
            BackupService(dep, None, RngRegistry(1), change_fraction=1.5)
