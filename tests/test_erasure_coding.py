"""Tests for GF(256), Reed-Solomon, and the striped store overlay."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import build_deployment
from repro.ec import DecodeError, RSCode, StripedStore
from repro.ec import gf256 as gf
from repro.units import MiB


class TestGf256:
    def test_add_is_xor(self):
        assert gf.add(0b1010, 0b0110) == 0b1100

    def test_mul_identity_and_zero(self):
        for a in range(256):
            assert gf.mul(a, 1) == a
            assert gf.mul(a, 0) == 0

    def test_mul_commutes(self):
        for a in (3, 77, 200, 255):
            for b in (5, 99, 254):
                assert gf.mul(a, b) == gf.mul(b, a)

    def test_inverse(self):
        for a in range(1, 256):
            assert gf.mul(a, gf.inv(a)) == 1

    def test_div_consistent_with_mul(self):
        for a in (7, 42, 250):
            for b in (3, 89, 255):
                assert gf.mul(gf.div(a, b), b) == a

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            gf.inv(0)
        with pytest.raises(ZeroDivisionError):
            gf.div(5, 0)

    def test_distributive(self):
        for a, b, c in ((3, 5, 7), (200, 100, 50), (255, 254, 253)):
            assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


class TestRSCode:
    def test_round_trip_no_erasures(self):
        code = RSCode(4, 2)
        data = bytes(range(256)) * 3
        shards = code.encode(data)
        assert len(shards) == 6
        recovered = code.decode({i: shards[i] for i in range(4)}, len(data))
        assert recovered == data

    def test_recover_from_data_erasures(self):
        code = RSCode(4, 2)
        data = b"the cold data lives on usb disks" * 11
        shards = code.encode(data)
        available = {1: shards[1], 3: shards[3], 4: shards[4], 5: shards[5]}
        assert code.decode(available, len(data)) == data

    def test_every_erasure_pattern(self):
        """Any m=2 erasures out of 6 shards are recoverable."""
        import itertools

        code = RSCode(4, 2)
        data = bytes(i % 251 for i in range(1000))
        shards = code.encode(data)
        for lost in itertools.combinations(range(6), 2):
            available = {
                i: shards[i] for i in range(6) if i not in lost
            }
            assert code.decode(available, len(data)) == data, lost

    def test_too_few_shards(self):
        code = RSCode(4, 2)
        shards = code.encode(b"x" * 100)
        with pytest.raises(DecodeError):
            code.decode({0: shards[0], 1: shards[1], 2: shards[2]}, 100)

    def test_inconsistent_sizes(self):
        code = RSCode(2, 1)
        with pytest.raises(DecodeError):
            code.decode({0: b"ab", 1: b"a"}, 3)

    def test_reconstruct_single_shard(self):
        code = RSCode(3, 2)
        data = b"rebuild me" * 30
        shards = code.encode(data)
        survivors = {i: shards[i] for i in (0, 2, 3)}
        assert code.reconstruct_shard(survivors, 1, len(data)) == shards[1]
        assert code.reconstruct_shard(survivors, 4, len(data)) == shards[4]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RSCode(0, 2)
        with pytest.raises(ValueError):
            RSCode(200, 100)

    def test_empty_data(self):
        code = RSCode(4, 2)
        shards = code.encode(b"")
        assert all(s == b"" for s in shards)

    @given(
        data=st.binary(min_size=1, max_size=4096),
        k=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_any_k_shards_decode(self, data, k, m, seed):
        import random

        code = RSCode(k, m)
        shards = code.encode(data)
        rng = random.Random(seed)
        keep = rng.sample(range(k + m), k)
        available = {i: shards[i] for i in keep}
        assert code.decode(available, len(data)) == data


class TestStripedStore:
    def build(self, k=4, m=2):
        dep = build_deployment()
        dep.settle(15.0)
        client = dep.new_client("ec-app", service="ec")
        spaces = []
        used = []

        def provision():
            from repro.cluster.namespace import parse_space_id

            for _ in range(k + m):
                info = yield from client.allocate(256 * MiB, exclude_disks=used)
                used.append(parse_space_id(info["space_id"])[1])
                space = yield from client.mount(info["space_id"])
                spaces.append(space)

        dep.sim.run_until_event(dep.sim.process(provision()))
        store = StripedStore(
            sim=dep.sim, code=RSCode(k, m), spaces=spaces, space_bytes=256 * MiB
        )
        return dep, client, store, used

    def test_put_get_round_trip(self):
        dep, client, store, used = self.build()
        payload = bytes(i % 256 for i in range(3 * MiB))

        def scenario():
            yield from store.put("obj1", payload)
            result = yield from store.get("obj1")
            return result

        assert dep.sim.run_until_event(dep.sim.process(scenario())) == payload
        assert store.degraded_reads == 0

    def test_degraded_read_after_disk_failure(self):
        dep, client, store, used = self.build()
        payload = b"erasure coded cold data" * 1000

        def write():
            yield from store.put("obj1", payload)

        dep.sim.run_until_event(dep.sim.process(write()))
        # Fail the disk under shard 0 (and its host lookups).
        from repro.faults import FaultInjector

        FaultInjector(dep).fail_disk(used[0])
        dep.settle(5.0)

        def read():
            return (yield from store.get("obj1"))

        result = dep.sim.run_until_event(dep.sim.process(read()))
        assert result == payload
        assert store.degraded_reads == 1

    def test_repair_rebuilds_onto_replacement(self):
        dep, client, store, used = self.build()
        payload = bytes(range(256)) * 512

        def write():
            yield from store.put("obj1", payload)

        dep.sim.run_until_event(dep.sim.process(write()))
        from repro.faults import FaultInjector

        FaultInjector(dep).fail_disk(used[1])
        dep.settle(5.0)

        def repair_and_read():
            from repro.cluster.namespace import parse_space_id

            info = yield from client.allocate(256 * MiB, exclude_disks=used)
            replacement = yield from client.mount(info["space_id"])
            rebuilt = yield from store.repair(1, replacement)
            data = yield from store.get("obj1")
            return rebuilt, data

        rebuilt, data = dep.sim.run_until_event(dep.sim.process(repair_and_read()))
        assert rebuilt == 1
        assert data == payload

    def test_wrong_space_count_rejected(self):
        dep = build_deployment()
        with pytest.raises(ValueError):
            StripedStore(sim=dep.sim, code=RSCode(4, 2), spaces=[], space_bytes=MiB)

    def test_duplicate_object_rejected(self):
        dep, client, store, used = self.build(k=2, m=1)

        def scenario():
            yield from store.put("x", b"abc")
            yield from store.put("x", b"def")

        with pytest.raises(ValueError):
            dep.sim.run_until_event(dep.sim.process(scenario()))
