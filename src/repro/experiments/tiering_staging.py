"""Experiment: staged archival writes vs write-through to cold homes.

The tiering claim on UStore hardware: archival writes should land on a
small always-spinning hot tier and migrate to their cold homes in the
background, not spin a cold disk per write.  Two treatments of the
same trickle workload (archival writes interleaved with reads of
pre-existing cold data) run on identically seeded deployments under
the same power budget:

* **staged** — the :mod:`repro.tiering` store absorbs each write into
  the bounded staging buffer on the pinned hot tier (ack at hot
  latency), and the migration orchestrator later flushes each cold
  space's accumulated run as one sequential write, gated on idle
  watts, foreground pressure, and the min-bytes/max-age batch
  discipline.
* **write_through** — each write goes straight to its hash-placed
  cold home (the identical ``stable_hash`` placement the staged
  variant demotes to), paying that disk's spin-up in the ack path and
  competing with cold reads for the power budget.

Both variants run to the same absolute sim end so disk-energy
integrals are comparable.  Anchors: staged acks and demotes every
object exactly once with strictly fewer spin-ups, a strictly lower
write p99 and strictly less energy, while the cold-read p99 it
imposes on foreground readers stays within 5% of write-through's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import (
    DRAIN_STEP_SECONDS,
    energy_books,
    format_table,
    start_gateway,
)
from repro.gateway import (
    GatewayConfig,
    GatewayRequest,
    ObjectRef,
    ReadObject,
    TenantSpec,
    WriteObject,
    percentile,
)
from repro.obs import MetricsRegistry, RequestTracer
from repro.shardstore import stable_hash
from repro.tiering import MigrationOrchestrator, TieredStore, TieringConfig
from repro.units import KiB, MiB

__all__ = ["EXPERIMENT", "ARCHIVE", "MIGRATION", "run_point"]

ARCHIVE = TenantSpec(
    name="archive",
    weight=1.0,
    users=0,
    rate_per_user=0.0,
    read_fraction=0.0,
    object_sizes=((256 * KiB, 1.0),),
    slo_seconds=120.0,
    max_queue_depth=100_000,
)
MIGRATION = TenantSpec(
    name="migration",
    weight=0.5,
    users=0,
    rate_per_user=0.0,
    read_fraction=0.0,
    object_sizes=((256 * KiB, 1.0),),
    slo_seconds=600.0,
    max_queue_depth=100_000,
)

#: One always-spinning disk out of 16 — the hot tier's fixed idle
#: draw is the staging design's rent, so it stays minimal.
HOT_SPACES = 1
WARM_SECONDS = 10.0
#: Resident cold data that foreground readers fetch during the write
#: window — parked well past any write region so neither variant's
#: ingest can collide with it.
RESIDENTS_PER_SPACE = 2
RESIDENT_BASE_OFFSET = 40 * MiB
RESIDENT_STRIDE = 8 * MiB


def _cold_layout(objects) -> List[str]:
    """The cold spaces (everything past the hot tier), sorted."""
    spaces = sorted(obj.space_id for obj in objects)
    return spaces[HOT_SPACES:]


def _resident_refs(cold_spaces: List[str]) -> List[ObjectRef]:
    """Pre-existing cold objects the read workload targets."""
    refs = []
    for space_id in cold_spaces:
        for index in range(RESIDENTS_PER_SPACE):
            refs.append(
                ObjectRef(
                    space_id=space_id,
                    offset=RESIDENT_BASE_OFFSET + index * RESIDENT_STRIDE,
                    size=256 * KiB,
                    object_id=f"resident:{space_id}:{index}",
                )
            )
    return refs


def run_point(
    mode: str,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[RequestTracer] = None,
    **overrides: Any,
) -> Dict:
    """Run one treatment on a fresh identically-seeded deployment.

    ``mode`` is ``"staged"`` (tiering store + migration orchestrator)
    or ``"write_through"`` (each write straight to its cold home);
    ``overrides`` are :data:`EXPERIMENT` params, the rest keep their
    declared defaults.  Writes and cold reads interleave over
    ``write_seconds``; the sim then drains and runs to the absolute
    ``total_seconds`` mark so both variants integrate disk energy over
    the same wall of time.  ``energy=True`` arms the DESIGN §15 energy
    ledger: the summary gains per-tenant (``archive`` vs
    ``migration``) and per-tier (``hot`` vs ``cold``) wall-joule books
    whose accounts sum to the PowerMeter integral.
    """
    if mode not in ("staged", "write_through"):
        raise ValueError(f"unknown mode {mode!r}")
    params = EXPERIMENT.merged_params(overrides)
    num_writes, num_cold_reads = params["num_writes"], params["num_cold_reads"]
    object_bytes, write_seconds = params["object_bytes"], params["write_seconds"]
    deployment, gateway, objects, meter = start_gateway(
        (ARCHIVE, MIGRATION),
        GatewayConfig(
            power_budget_watts=params["power_budget_watts"], scheduler="batch"
        ),
        seed=params["seed"],
        detect_races=params["detect_races"],
        metrics=metrics,
        tracer=tracer,
        energy=params["energy"],
        hot_spaces=HOT_SPACES if mode == "staged" else 0,
    )
    sim = deployment.sim
    cold_spaces = _cold_layout(objects)
    residents = _resident_refs(cold_spaces)

    store = None
    if mode == "staged":
        store = TieredStore(
            gateway,
            TieringConfig(
                tenant=ARCHIVE.name,
                migration_tenant=MIGRATION.name,
                hot_spaces=HOT_SPACES,
                demotion_min_batch_bytes=4 * MiB,
                demotion_max_age_seconds=180.0,
                # Two batches' spin-ups plus the hot tier leave watts
                # for a foreground cold read at all times.
                max_inflight_demotions=2,
                pressure_queue_depth=2,
            ),
        )
        store.start()
        MigrationOrchestrator(store).start()
    ledger = meter.ledger if meter is not None else None
    if ledger is not None:
        if store is not None:
            store.classify_tiers(ledger)
        else:
            # No hot tier in write-through: every disk books as cold.
            for disk_id in sorted(deployment.disks):
                ledger.set_tier(disk_id, "cold")
    sim.run(until=sim.now + WARM_SECONDS)

    uids = [f"arch-{index:05d}" for index in range(num_writes)]
    write_rand = deployment.rng.stream("tiering.write_times")
    write_times = sorted(write_rand.uniform(0.0, write_seconds) for _ in uids)
    read_rand = deployment.rng.stream("tiering.read_times")
    read_times = sorted(
        read_rand.uniform(0.0, write_seconds) for _ in range(num_cold_reads)
    )
    sample_rand = deployment.rng.stream("tiering.read_sample")
    read_refs = [
        residents[sample_rand.randrange(len(residents))]
        for _ in range(num_cold_reads)
    ]

    window_start = sim.now
    write_latencies: List[float] = []
    write_requests: Dict[str, GatewayRequest] = {}
    read_requests: List[GatewayRequest] = []

    if mode == "staged":
        records = {}

        def write_all():
            for uid, at in zip(uids, write_times):
                target = window_start + at
                if target > sim.now:
                    yield sim.timeout(target - sim.now)
                records[uid] = store.write(uid, object_bytes)

    else:
        # Identical hash placement, no staging: the write pays its
        # cold home's spin-up in the ack path.
        tails = {space_id: 0 for space_id in cold_spaces}
        refs: Dict[str, ObjectRef] = {}
        for uid in uids:
            space_id = cold_spaces[stable_hash(uid) % len(cold_spaces)]
            refs[uid] = ObjectRef(
                space_id=space_id,
                offset=tails[space_id],
                size=object_bytes,
                object_id=uid,
            )
            tails[space_id] += object_bytes

        def write_all():
            for uid, at in zip(uids, write_times):
                target = window_start + at
                if target > sim.now:
                    yield sim.timeout(target - sim.now)
                write_requests[uid] = gateway.submit_op(
                    WriteObject(tenant=ARCHIVE.name, ref=refs[uid])
                )

    def read_all():
        for ref, at in zip(read_refs, read_times):
            target = window_start + at
            if target > sim.now:
                yield sim.timeout(target - sim.now)
            read_requests.append(
                gateway.submit_op(ReadObject(tenant=ARCHIVE.name, ref=ref))
            )

    writer = sim.process(write_all())
    reader = sim.process(read_all())
    sim.run_until_event(writer)
    sim.run_until_event(reader)

    # Drain foreground and (staged) background work, then coast both
    # variants to the same absolute end time for fair energy accounting.
    def fully_drained() -> bool:
        if not gateway.drained():
            return False
        if store is None:
            return True
        return (
            store.pending_demotion_bytes() == 0 and store.inflight_demotions == 0
        )

    total_seconds = params["total_seconds"]
    while sim.now < total_seconds and not fully_drained():
        sim.run(until=sim.now + DRAIN_STEP_SECONDS)
    drained = fully_drained()
    if sim.now < total_seconds:
        sim.run(until=total_seconds)

    if mode == "staged":
        for uid in uids:
            record = records.get(uid)
            if record is not None and record.acked_at is not None:
                write_latencies.append(record.acked_at - record.written_at)
        acked = sum(
            1
            for uid in uids
            if records.get(uid) is not None and records[uid].acked_at is not None
        )
        demoted = store.stats.demoted
    else:
        for uid in uids:
            latency = write_requests[uid].latency
            if latency is not None:
                write_latencies.append(latency)
        acked = sum(1 for uid in uids if write_requests[uid].failure is None)
        demoted = acked  # write-through lands cold immediately

    read_latencies = [
        request.latency for request in read_requests if request.latency is not None
    ]
    summary = gateway.summary()
    summary["mode"] = mode
    summary["drained"] = drained
    summary["end_seconds"] = sim.now
    summary["acked_objects"] = acked
    summary["cold_resident_objects"] = demoted
    summary["write_p50"] = percentile(write_latencies, 50)
    summary["write_p99"] = percentile(write_latencies, 99)
    summary["cold_read_p50"] = percentile(read_latencies, 50)
    summary["cold_read_p99"] = percentile(read_latencies, 99)
    summary["exactly_once"] = (
        acked == num_writes
        and demoted == num_writes
        and summary["failed"] == 0
        and len(read_latencies) == num_cold_reads
        and all(request.attempts == 1 for request in read_requests)
    )
    if store is not None:
        summary["store"] = store.summary()
    if meter is not None:
        summary["energy"] = energy_books(meter)
    if params["detect_races"]:
        summary["races"] = list(sim.races)
    return summary


def _build_result(**params: Any) -> ExperimentResult:
    """Run both treatments on identically seeded deployments."""
    registry = MetricsRegistry()
    variants: Dict[str, Dict] = {}
    races: List = []
    for mode in ("staged", "write_through"):
        summary = run_point(mode, metrics=registry, **params)
        races.extend(summary.pop("races", []))
        variants[mode] = summary
    staged = variants["staged"]
    through = variants["write_through"]
    anchors = {
        # Batched sequential demotion amortizes spin-ups that
        # write-through pays per object.
        "staged_fewer_spin_ups": staged["spin_ups"] < through["spin_ups"],
        # Acks come off the always-spinning hot tier.
        "staged_write_p99_lower": staged["write_p99"] < through["write_p99"],
        # Background migration must not tax foreground cold readers by
        # more than 5%.
        "staged_cold_read_p99_within_5pct": (
            staged["cold_read_p99"] <= 1.05 * through["cold_read_p99"]
        ),
        "staged_lower_energy": staged["energy_joules"] < through["energy_joules"],
        "exactly_once_both": bool(
            staged["exactly_once"] and through["exactly_once"]
        ),
        "both_drained": bool(staged["drained"] and through["drained"]),
    }
    metrics_out = {
        "staged_spin_ups": staged["spin_ups"],
        "write_through_spin_ups": through["spin_ups"],
        "staged_write_p99_seconds": staged["write_p99"],
        "write_through_write_p99_seconds": through["write_p99"],
        "staged_cold_read_p99_seconds": staged["cold_read_p99"],
        "write_through_cold_read_p99_seconds": through["cold_read_p99"],
        "staged_energy_joules": staged["energy_joules"],
        "write_through_energy_joules": through["energy_joules"],
        "staged_demotion_batches": staged["store"]["demotion_batches"],
        "staged_demoted_bytes": staged["store"]["demoted_bytes"],
    }
    if params["energy"]:
        # §15 conservation identity holds in both variants, and the
        # background demotion traffic books under the dedicated
        # migration tenant, never under the user tenant.
        anchors["energy_conserved"] = all(
            variant["energy"]["identity"]["conserved"]
            for variant in variants.values()
        )
        anchors["migration_energy_separated"] = (
            staged["energy"]["accounts"].get("tenant:migration", 0.0) > 0.0
            and "tenant:migration" not in through["energy"]["accounts"]
        )
        for name, summary in (("staged", staged), ("write_through", through)):
            metrics_out[f"{name}_wall_joules"] = summary["energy"]["identity"][
                "wall_joules"
            ]
            for account, joules in summary["energy"]["accounts"].items():
                metrics_out[f"{name}_joules[{account}]"] = joules
            for tier, book in summary["energy"]["tiers"].items():
                metrics_out[f"{name}_tier_joules[{tier}]"] = book["total"]
    raw: Dict = {
        "params": {k: v for k, v in params.items() if k != "detect_races"},
        "variants": variants,
        "anchors": anchors,
    }
    if params["detect_races"]:
        raw["races"] = races
    return ExperimentResult(
        metrics=metrics_out,
        anchors=dict(anchors),
        obs=registry.dump(),
        raw=raw,
        text=_report(raw),
    )


def _report(result: Dict) -> str:
    lines = [
        "Tiering: staged writes vs write-through to cold homes",
        "",
    ]
    headers = [
        "Mode", "Spin-ups", "write p50 s", "write p99 s",
        "cold-read p99 s", "Energy kJ", "Drained",
    ]
    rows = []
    for name in ("staged", "write_through"):
        summary = result["variants"][name]
        rows.append(
            [
                name,
                summary["spin_ups"],
                round(summary["write_p50"], 3),
                round(summary["write_p99"], 3),
                round(summary["cold_read_p99"], 2),
                round(summary["energy_joules"] / 1000.0, 2),
                "yes" if summary["drained"] else "NO",
            ]
        )
    lines.append(format_table(headers, rows))
    staged = result["variants"]["staged"]
    if "store" in staged:
        store = staged["store"]
        lines.append("")
        lines.append(
            f"  staged: {store['staged']} objects staged, "
            f"{store['demoted']} demoted in {store['demotion_batches']} batches "
            f"({store['demoted_bytes'] // MiB} MiB sequential), "
            f"{store['staging_overflows']} staging overflows"
        )
    if any("energy" in result["variants"][n] for n in ("staged", "write_through")):
        lines.append("")
        lines.append("Energy attribution (wall joules by account / tier):")
        for name in ("staged", "write_through"):
            summary = result["variants"][name]
            if "energy" not in summary:
                continue
            energy = summary["energy"]
            accounts = energy["accounts"]
            parts = ", ".join(
                f"{account}={accounts[account]:.0f}J"
                for account in sorted(accounts, key=lambda a: -accounts[a])
            )
            tiers = ", ".join(
                f"{tier}={energy['tiers'][tier]['total']:.0f}J"
                for tier in sorted(energy["tiers"])
            )
            identity = energy["identity"]
            lines.append(f"  {name}: {parts}")
            lines.append(
                f"  {name}: tiers {tiers}; wall={identity['wall_joules']:.0f}J "
                f"residual={identity['residual']:.9f}J "
                f"conserved={identity['conserved']}"
            )
    lines.append("")
    for name, holds in result["anchors"].items():
        lines.append(f"  anchor {name}: {'OK' if holds else 'FAILED'}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="tiering_staging",
    paper_ref="§IV-F extended: hot/cold tiering with write staging",
    description="Archival writes: staged hot tier vs write-through cold homes",
    builder=_build_result,
    params={
        "seed": 23,
        "num_writes": 240,
        "object_bytes": 256 * KiB,
        "num_cold_reads": 40,
        "write_seconds": 600.0,
        "total_seconds": 950.0,
        "power_budget_watts": 40.0,
        "detect_races": False,
        "energy": True,
    },
    # Every anchor holds at this size; at 60 writes over 240 s staging
    # uses more disk energy than write-through (seed 23).
    smoke={
        "num_writes": 120,
        "num_cold_reads": 16,
        "write_seconds": 300.0,
        "total_seconds": 520.0,
    },
)
