"""Shardstore crash/remount regression: exactly-once, no metadata DB.

The contract under test: a host crash in the middle of a flush must not
lose or double-ack any object (the ClientLib remount retry is internal;
the gateway issues each flush write once), and after the soft-state
directory is dropped, ``recover()`` must rebuild it from media scans
alone so that **every acknowledged object** is retrievable exactly
once.  If that holds, the store genuinely needs no metadata database.
"""

import pytest

from repro.shardstore import ObjectNotFoundError, ObjectState
from repro.units import KiB, MiB

from tests.test_gateway import drain
from tests.test_shardstore import DATE, build_store

NUM_OBJECTS = 40


def ingest_then_crash(config_kwargs=None):
    """40 puts + flush_all; crash the host serving the first flush
    while its write is in flight; drain to completion."""
    dep, gateway, store = build_store(
        shards_per_day=4,
        shard_capacity=4 * MiB,
        **(config_kwargs or {}),
    )
    records = []
    flushes = []

    def ingest():
        for i in range(NUM_OBJECTS):
            records.append(store.put(f"uid-{i}", DATE, 64 * KiB))
        flushes.extend(store.flush_all())

    dep.sim.defer(0.0, ingest)
    # Run to just past the 8s spin-up: the first flush write is in
    # flight when its endpoint dies.
    dep.sim.run(until=dep.sim.now + 8.05)
    assert gateway.outstanding() > 0, "crash must land mid-flush"
    host = dep.host_of_disk(flushes[0].disk_id)
    assert host is not None
    dep.crash_host(host)
    drain(dep, gateway)
    return dep, gateway, store, records, flushes


def test_mid_flush_crash_acks_every_object_exactly_once():
    dep, gateway, store, records, flushes = ingest_then_crash()

    # The crash was absorbed by the ClientLib remount: every flush
    # write completed on its single gateway attempt, and every object
    # it carried is acked durable exactly once.
    assert store.stats.accepted == NUM_OBJECTS
    assert store.stats.acked == NUM_OBJECTS
    assert store.stats.flush_failures == 0
    assert store.stats.flush_failed == 0
    assert all(f.attempts == 1 for f in flushes)
    assert all(r.state is ObjectState.ACKED for r in records)
    assert gateway.stats.failed == 0
    remounts = sum(
        space.stats.remounts for space in gateway._spaces.values()
    )
    assert remounts >= 1


def test_recovery_rebuilds_directory_from_media_alone():
    dep, gateway, store, records, _ = ingest_then_crash()
    assert store.directory_size() == NUM_OBJECTS

    # Lose the soft state, as a restart of the store node would.
    store.drop_directory()
    assert store.directory_size() == 0
    with pytest.raises(ObjectNotFoundError):
        store.get("uid-0", DATE)

    # Rebuild from media: one paid scan read per durable shard, no
    # other source consulted.
    scans = []
    dep.sim.defer(0.0, lambda: scans.extend(store.recover()))
    drain(dep, gateway)
    assert store.stats.recovery_scans == len(scans) > 0
    assert all(s.attempts == 1 and s.failure is None for s in scans)
    assert store.directory_size() == NUM_OBJECTS

    # Every acknowledged object comes back exactly once.
    gets = []

    def retrieve():
        for i in range(NUM_OBJECTS):
            gets.append(store.get(f"uid-{i}", DATE))

    dep.sim.defer(0.0, retrieve)
    drain(dep, gateway)
    assert store.stats.retrievals == NUM_OBJECTS
    assert store.stats.retrieval_failures == 0
    assert all(g.attempts == 1 and g.failure is None for g in gets)

    # The recovered directory agrees byte-for-byte with the original
    # pack-time placement (offsets never moved).
    by_uid = {r.uid: r for r in records}
    for get, i in zip(gets, range(NUM_OBJECTS)):
        record = by_uid[f"uid-{i}"]
        slot = store.slot_ref(record.shard)
        assert get.offset == slot.offset + record.offset_in_shard
        assert get.size == record.record_bytes
