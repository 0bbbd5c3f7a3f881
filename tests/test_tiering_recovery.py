"""Tiering crash/remount property test: exactly-once placement.

The contract: crash the host serving an in-flight demotion batch AND
the tiering node itself (soft state dropped, in-flight completions
orphaned) at an adversarial moment, then recover from media scans
alone.  Afterwards every acknowledged object must resolve to exactly
one durable tier — the demotion's data may have landed (duplicate:
cold wins) or not (hot-only: re-stage and owe a fresh demotion), but
never both kept, never neither.  30 seeds vary fabric/USB timing and
the crash instant within the batch's flight window.
"""

from tests.test_gateway import drain
from tests.test_tiering import OBJECT_BYTES, build_tiered, drain_tiering

NUM_OBJECTS = 10
SEEDS = range(1, 31)


def crash_recover_audit(seed):
    """One property-test trial; returns the store's stats for coverage
    aggregation across seeds."""
    dep, gateway, store, _ = build_tiered(seed=seed)
    uids = [f"s{seed}-u{i}" for i in range(NUM_OBJECTS)]

    def ingest():
        for uid in uids:
            store.write(uid, OBJECT_BYTES)

    dep.sim.defer(0.0, ingest)

    # Step until the orchestrator has a demotion batch in flight.
    deadline = dep.sim.now + 90.0
    while dep.sim.now < deadline and store.inflight_demotions == 0:
        dep.sim.run(until=dep.sim.now + 0.25)
    assert store.inflight_demotions > 0, f"seed {seed}: no demotion started"

    # Seed-dependent crash instant inside the batch's ~8s flight
    # window (the cold disk is mid-spin-up or mid-write).
    jitter = dep.rng.stream("test.crash_jitter").uniform(0.0, 0.5)
    dep.sim.run(until=dep.sim.now + jitter)

    if store.inflight_demotions > 0:
        # Kill the host serving the batch's cold disk at the same
        # instant the tiering node loses its soft state.
        space_id = store.inflight_spaces()[0]
        host = dep.host_of_disk(store._disk_of_space[space_id])
        assert host is not None
        dep.crash_host(host)
    store.drop_soft_state()

    # The orphaned batch still completes on the platter (ClientLib
    # remount absorbs the crash); its commit died with the node.
    drain(dep, gateway)
    assert store.stats.soft_state_drops == 1

    # Rebuild placement from media scans alone.
    scans = []
    dep.sim.defer(0.0, lambda: scans.extend(store.recover()))
    drain(dep, gateway)
    assert len(scans) > 0, f"seed {seed}: nothing durable to scan"
    assert all(s.failure is None and s.attempts == 1 for s in scans)

    # Exactly-once: every acknowledged object, one durable tier.
    assert sorted(store._index) == sorted(uids), f"seed {seed}: lost objects"
    for uid in uids:
        tiers = store.durable_tiers(uid)
        assert len(tiers) == 1, f"seed {seed}: {uid} durable in {tiers}"
        assert store.residency(uid) == tiers[0]

    # Every object reads back on a single gateway attempt.
    reads = []

    def read_all():
        for uid in uids:
            reads.append(store.read(uid))

    dep.sim.defer(0.0, read_all)
    drain(dep, gateway)
    assert len(reads) == NUM_OBJECTS
    assert all(r.failure is None and r.attempts == 1 for r in reads)

    # Recovered hot-only objects owe a fresh demotion; the (still
    # running) orchestrator finishes the job.
    drain_tiering(dep, gateway, store)
    assert all(store.durable_tiers(uid) == ["cold"] for uid in uids), (
        f"seed {seed}: objects left un-demoted after recovery"
    )
    return store.stats


def test_exactly_once_placement_across_crash_remount_30_seeds():
    duplicates = 0
    hot_only = 0
    for seed in SEEDS:
        stats = crash_recover_audit(seed)
        duplicates += stats.recovered_duplicates
        hot_only += stats.recovered_hot_only
    # The seeds must jointly exercise both recovery resolutions:
    # demotion data landed before the crash (cold wins over the hot
    # twin) and demotion still pending (hot-only re-stage).
    assert duplicates > 0, "no seed produced a cross-tier duplicate"
    assert hot_only > 0, "no seed left a hot-only object to re-stage"
