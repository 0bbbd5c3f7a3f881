"""Property-based tests on the backup store's dedup invariants."""

from hypothesis import given, settings, strategies as st

from repro.backup import ArchiveStore, FileVersion, chunk_file
from repro.disk import SimulatedDisk
from repro.net import StorageVolume
from repro.sim import Simulator
from repro.workload import MB


class _LocalSpace:
    """MountedSpace-shaped wrapper over a local simulated disk, so the
    store can be property-tested without a whole deployment."""

    def __init__(self, sim, name):
        self.volume = StorageVolume(name, SimulatedDisk(sim, name))
        self.sim = sim

    def write(self, offset, size):
        yield from self.volume.serve(offset, size, is_read=False)
        return {"ok": True}

    def read(self, offset, size):
        yield from self.volume.serve(offset, size, is_read=True)
        return {"ok": True}


def make_store(sim):
    return ArchiveStore(
        sim, [_LocalSpace(sim, "s0"), _LocalSpace(sim, "s1")], space_bytes=10_000 * MB
    )


file_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # file name index
        st.integers(min_value=1, max_value=16 * MB),  # size
        st.integers(min_value=0, max_value=5),  # content seed
    ),
    min_size=1,
    max_size=12,
)


def to_versions(raw):
    seen = {}
    for name_index, size, seed in raw:
        # Same name appears once per snapshot; last one wins.
        seen[f"f{name_index}"] = FileVersion(f"f{name_index}", size, seed)
    return list(seen.values())


class TestDedupInvariants:
    @given(raw=file_lists)
    @settings(max_examples=30, deadline=None)
    def test_unique_bytes_never_exceed_logical(self, raw):
        sim = Simulator()
        store = make_store(sim)
        files = to_versions(raw)

        def scenario():
            return (yield from store.snapshot("s", files))

        stats = sim.run_until_event(sim.process(scenario()))
        assert stats.unique_bytes <= stats.logical_bytes
        assert stats.chunks_new <= stats.chunks_total
        assert stats.logical_bytes == sum(f.size for f in files)

    @given(raw=file_lists)
    @settings(max_examples=30, deadline=None)
    def test_second_identical_snapshot_writes_nothing(self, raw):
        sim = Simulator()
        store = make_store(sim)
        files = to_versions(raw)

        def scenario():
            yield from store.snapshot("one", files)
            second = yield from store.snapshot("two", files)
            return second

        stats = sim.run_until_event(sim.process(scenario()))
        assert stats.unique_bytes == 0
        assert stats.chunks_new == 0

    @given(raw=file_lists)
    @settings(max_examples=25, deadline=None)
    def test_restore_returns_exact_logical_bytes(self, raw):
        sim = Simulator()
        store = make_store(sim)
        files = to_versions(raw)

        def scenario():
            stats = yield from store.snapshot("s", files)
            result = yield from store.restore("s")
            return stats, result

        stats, result = sim.run_until_event(sim.process(scenario()))
        assert result["bytes_restored"] == stats.logical_bytes

    @given(raw=file_lists, edit_seed=st.integers(min_value=100, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_stored_bytes_equals_sum_of_new_chunks(self, raw, edit_seed):
        sim = Simulator()
        store = make_store(sim)
        files = to_versions(raw)

        def scenario():
            first = yield from store.snapshot("one", files)
            edited = [files[0].edited(edit_seed)] + files[1:]
            second = yield from store.snapshot("two", edited)
            return first, second

        first, second = sim.run_until_event(sim.process(scenario()))
        assert store.stored_bytes == first.unique_bytes + second.unique_bytes

    @given(
        size=st.integers(min_value=1, max_value=64 * MB),
        chunk=st.integers(min_value=1024, max_value=8 * MB),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunking_partitions_exactly(self, size, chunk):
        chunks = chunk_file(FileVersion("f", size, 0), chunk_bytes=chunk)
        assert sum(c.size for c in chunks) == size
        assert all(c.size <= chunk for c in chunks)
        assert len({c.fingerprint for c in chunks}) == len(chunks)
