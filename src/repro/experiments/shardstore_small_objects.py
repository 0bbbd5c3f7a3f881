"""Experiment: packed shard layout vs naive per-object placement.

The object-count workload (billions of small archival objects) on
UStore hardware: 1000 small objects are ingested and a sample read
back through the gateway under the same 24 W power budget, with two
placements on identically seeded deployments:

* **packed** — the :mod:`repro.shardstore` tier routes each object to
  ``route(uid, date)``, packs it into an 8 MiB day-partitioned shard,
  and flushes whole shards as single sequential writes.  One day's 16
  shards land on ~3 of the 16 spaces, so ingest pays ~3 spin-ups and
  retrieval hits a handful of disks whose same-shard reads coalesce
  into single passes.
* **naive** — one gateway request per object, hash-spread over all 16
  spaces (the placement a small-object workload gets with no packing
  tier).  Every disk must spin for ingest *and* for the read-back
  sample, and the power budget (3 disks' worth) serializes the
  spin-up waves.

Anchors: the packed layout acks and retrieves every object exactly
once, with strictly fewer spin-ups, a strictly lower retrieval p99,
and no more disk energy than naive at the same budget.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import drain, format_table, start_gateway
from repro.gateway import (
    GatewayConfig,
    GatewayRequest,
    ObjectRef,
    ReadObject,
    TenantSpec,
    WriteObject,
    percentile,
)
from repro.obs import MetricsRegistry
from repro.shardstore import (
    RECORD_HEADER_BYTES,
    PackedObject,
    ShardStore,
    ShardStoreConfig,
    stable_hash,
)
from repro.units import KiB, MiB

__all__ = ["EXPERIMENT", "TENANT", "run_point"]

TENANT = TenantSpec(
    name="objects",
    weight=1.0,
    users=0,
    rate_per_user=0.0,
    read_fraction=1.0,
    object_sizes=((64 * KiB, 1.0),),
    slo_seconds=120.0,
    max_queue_depth=100_000,
)

#: Every object lands on one calendar day (the paper's publication
#: spring); multi-day retention is exercised by the routing tests.
DATE = "2015-06-01"
SHARD_CAPACITY = 8 * MiB
SHARDS_PER_DAY = 16
PUT_SECONDS = 60.0
GET_SECONDS = 30.0


def _arrival_times(deployment, stream: str, count: int, span: float) -> List[float]:
    """``count`` sorted uniform arrival offsets over ``span`` seconds."""
    rand = deployment.rng.stream(stream)
    return sorted(rand.uniform(0.0, span) for _ in range(count))


def run_point(
    layout: str, metrics: Optional[MetricsRegistry] = None, **overrides: Any
) -> Dict:
    """Run one placement variant on a fresh identically-seeded deployment.

    ``layout`` is ``"packed"`` (shardstore) or ``"naive"`` (one
    hash-spread gateway request per object); ``overrides`` are
    :data:`EXPERIMENT` params, the rest keep their declared defaults.
    Ingest offers the objects over :data:`PUT_SECONDS` from the traffic
    start, drains, then reads a sample back over :data:`GET_SECONDS`
    and drains again;
    returns the gateway summary plus object-level ack/retrieval
    latencies.
    """
    if layout not in ("packed", "naive"):
        raise ValueError(f"unknown layout {layout!r}")
    params = EXPERIMENT.merged_params(overrides)
    num_objects, num_gets = params["num_objects"], params["num_gets"]
    object_bytes = params["object_bytes"]
    deployment, gateway, _, _ = start_gateway(
        [TENANT],
        GatewayConfig(
            power_budget_watts=params["power_budget_watts"],
            scheduler="batch",
            coalesce_gap_bytes=SHARD_CAPACITY,
        ),
        seed=params["seed"],
        detect_races=params["detect_races"],
        metrics=metrics,
    )
    sim = deployment.sim
    uids = [f"u{index:05d}" for index in range(num_objects)]
    put_times = _arrival_times(deployment, "shardstore.puts", num_objects, PUT_SECONDS)
    sample_rand = deployment.rng.stream("shardstore.gets")
    sample = sorted(sample_rand.sample(range(num_objects), num_gets))
    get_times = _arrival_times(deployment, "shardstore.get_times", num_gets, GET_SECONDS)

    put_latencies: List[float] = []
    get_requests: List[GatewayRequest] = []
    summary: Dict = {}
    put_start = sim.now

    if layout == "packed":
        store = ShardStore(
            gateway,
            ShardStoreConfig(
                tenant=TENANT.name,
                shards_per_day=SHARDS_PER_DAY,
                shard_capacity_bytes=SHARD_CAPACITY,
            ),
        )
        records: Dict[str, Tuple[PackedObject, float]] = {}

        def put_all():
            for uid, at in zip(uids, put_times):
                target = put_start + at
                if target > sim.now:
                    yield sim.timeout(target - sim.now)
                records[uid] = (store.put(uid, DATE, object_bytes), sim.now)
            store.flush_all()

        sim.run_until_event(sim.process(put_all()))
        put_drained = drain(deployment, gateway)
        for uid in uids:
            record, at = records[uid]
            if record.acked_at is not None:
                put_latencies.append(record.acked_at - at)

        get_start = sim.now

        def get_all():
            for index, at in zip(sample, get_times):
                target = get_start + at
                if target > sim.now:
                    yield sim.timeout(target - sim.now)
                get_requests.append(store.get(uids[index], DATE))

        sim.run_until_event(sim.process(get_all()))
        get_drained = drain(deployment, gateway)
        summary = gateway.summary()
        summary["store"] = store.summary()
        summary["acked_objects"] = store.stats.acked
        summary["retrieved_objects"] = store.stats.retrievals
        summary["spaces_touched"] = summary["store"]["spaces_used"]
    else:
        objects = gateway.objects()
        spaces = [obj.space_id for obj in objects]
        record_bytes = RECORD_HEADER_BYTES + object_bytes
        tails = {space_id: 0 for space_id in spaces}
        refs: Dict[str, ObjectRef] = {}
        for uid in uids:
            space_id = spaces[stable_hash(uid) % len(spaces)]
            refs[uid] = ObjectRef(
                space_id=space_id,
                offset=tails[space_id],
                size=record_bytes,
                object_id=uid,
            )
            tails[space_id] += record_bytes
        put_requests: Dict[str, GatewayRequest] = {}

        def put_all_naive():
            for uid, at in zip(uids, put_times):
                target = put_start + at
                if target > sim.now:
                    yield sim.timeout(target - sim.now)
                put_requests[uid] = gateway.submit_op(
                    WriteObject(tenant=TENANT.name, ref=refs[uid])
                )

        sim.run_until_event(sim.process(put_all_naive()))
        put_drained = drain(deployment, gateway)
        for uid in uids:
            latency = put_requests[uid].latency
            if latency is not None:
                put_latencies.append(latency)

        get_start = sim.now

        def get_all_naive():
            for index, at in zip(sample, get_times):
                target = get_start + at
                if target > sim.now:
                    yield sim.timeout(target - sim.now)
                get_requests.append(
                    gateway.submit_op(
                        ReadObject(tenant=TENANT.name, ref=refs[uids[index]])
                    )
                )

        sim.run_until_event(sim.process(get_all_naive()))
        get_drained = drain(deployment, gateway)
        summary = gateway.summary()
        summary["acked_objects"] = sum(
            1 for uid in uids if put_requests[uid].failure is None
        )
        summary["retrieved_objects"] = sum(
            1 for request in get_requests if request.failure is None
        )
        summary["spaces_touched"] = sum(1 for tail in tails.values() if tail > 0)

    get_latencies = [
        request.latency for request in get_requests if request.latency is not None
    ]
    summary["layout"] = layout
    summary["drained"] = put_drained and get_drained
    summary["put_p50"] = percentile(put_latencies, 50)
    summary["put_p99"] = percentile(put_latencies, 99)
    summary["get_p50"] = percentile(get_latencies, 50)
    summary["get_p99"] = percentile(get_latencies, 99)
    summary["exactly_once"] = (
        summary["acked_objects"] == num_objects
        and summary["retrieved_objects"] == num_gets
        and summary["failed"] == 0
        and all(request.attempts == 1 for request in get_requests)
    )
    if params["detect_races"]:
        summary["races"] = list(sim.races)
    return summary


def _build_result(**params: Any) -> ExperimentResult:
    """Run both layouts on identically seeded deployments."""
    registry = MetricsRegistry()
    variants: Dict[str, Dict] = {}
    races: List = []
    for layout in ("packed", "naive"):
        summary = run_point(layout, metrics=registry, **params)
        races.extend(summary.pop("races", []))
        variants[layout] = summary
    packed, naive = variants["packed"], variants["naive"]
    anchors = {
        # One spin-up amortized over a shard's worth of objects.
        "packed_fewer_spin_ups": packed["spin_ups"] < naive["spin_ups"],
        "packed_get_p99_lower": packed["get_p99"] < naive["get_p99"],
        "packed_no_more_energy": packed["energy_joules"] <= naive["energy_joules"],
        "exactly_once_both": bool(
            packed["exactly_once"] and naive["exactly_once"]
        ),
        "both_drained": bool(packed["drained"] and naive["drained"]),
    }
    raw: Dict = {
        "params": {k: v for k, v in params.items() if k != "detect_races"},
        "variants": variants,
        "anchors": anchors,
    }
    if params["detect_races"]:
        raw["races"] = races
    return ExperimentResult(
        metrics={
            "packed_spin_ups": packed["spin_ups"],
            "naive_spin_ups": naive["spin_ups"],
            "packed_get_p99_seconds": packed["get_p99"],
            "naive_get_p99_seconds": naive["get_p99"],
            "packed_put_p99_seconds": packed["put_p99"],
            "naive_put_p99_seconds": naive["put_p99"],
            "packed_energy_joules": packed["energy_joules"],
            "naive_energy_joules": naive["energy_joules"],
            "packed_disk_passes": packed["disk_passes"],
            "naive_disk_passes": naive["disk_passes"],
            "packed_coalesced_reads": packed["coalesced_reads"],
        },
        anchors=dict(anchors),
        obs=registry.dump(),
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = [
        "Shardstore: packed shard layout vs naive per-object placement",
        "",
    ]
    headers = [
        "Layout", "Spaces", "Spin-ups", "Passes", "Coalesced",
        "put p99 s", "get p99 s", "Energy kJ",
    ]
    rows = []
    for name in ("packed", "naive"):
        summary = result["variants"][name]
        rows.append(
            [
                name,
                summary["spaces_touched"],
                summary["spin_ups"],
                summary["disk_passes"],
                summary["coalesced_reads"],
                round(summary["put_p99"], 2),
                round(summary["get_p99"], 2),
                round(summary["energy_joules"] / 1000.0, 2),
            ]
        )
    lines.append(format_table(headers, rows))
    packed = result["variants"]["packed"]
    if "store" in packed:
        store = packed["store"]
        lines.append("")
        lines.append(
            f"  packed: {store['acked']} objects in {store['flushes']} flushes "
            f"across {store['shards_used']} shards "
            f"(mean occupancy {store['mean_occupancy']:.1%})"
        )
    lines.append("")
    for name, holds in result["anchors"].items():
        lines.append(f"  anchor {name}: {'OK' if holds else 'FAILED'}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="shardstore_small_objects",
    paper_ref="§IV-F extended to the object-count workload",
    description="Small objects: packed shards vs naive per-object placement",
    builder=_build_result,
    params={
        "seed": 17,
        "num_objects": 1000,
        "object_bytes": 64 * KiB,
        "num_gets": 200,
        "power_budget_watts": 24.0,
        "detect_races": False,
    },
    smoke={"num_objects": 400, "num_gets": 80},
)
