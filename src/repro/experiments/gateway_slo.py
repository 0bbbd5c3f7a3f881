"""Experiment: the gateway tier under open-loop multi-tenant load.

Two identical deployments, two schedulers, one power budget: the
power-aware cold-read batch scheduler versus a naive FIFO front end.
An interactive tenant (hundreds of thousands of logical users issuing
occasional cold reads) and an archival tenant (a few batch pipelines)
offer ~1.5 req/s against 16 mostly spun-down disks with a 24 W budget
— enough for three disks at active draw, far less than the offered
spinning demand, which is exactly the regime §IV-F's batching argument
is about.

Anchors: the batch scheduler finishes the same workload with strictly
fewer disk spin-ups *and* a strictly lower p99 latency than FIFO at
the same budget, and neither scheduler loses or double-issues a
request (every admitted request completes exactly once).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import drain, energy_books, format_table, start_gateway
from repro.gateway import GatewayConfig, OpenLoopTrafficGenerator, TenantSpec
from repro.obs import (
    CriticalPathAnalyzer,
    FlightRecorder,
    MetricsRegistry,
    RequestTracer,
    SloMonitor,
    SloObjective,
)
from repro.units import KiB, MiB

__all__ = ["EXPERIMENT", "TENANTS", "run_point", "slo_objectives"]

#: The two-tenant mix: many small interactive cold-readers plus a few
#: heavy archival pipelines (open loop: rate = users x rate_per_user).
TENANTS = (
    TenantSpec(
        name="interactive",
        weight=4.0,
        users=150_000,
        rate_per_user=6.0e-6,  # 0.9 req/s aggregate
        read_fraction=1.0,
        object_sizes=((512 * KiB, 0.3), (4 * MiB, 0.7)),
        slo_seconds=45.0,
        max_queue_depth=128,
    ),
    TenantSpec(
        name="archival",
        weight=1.0,
        users=25,
        rate_per_user=2.4e-2,  # 0.6 req/s aggregate
        read_fraction=0.6,
        object_sizes=((4 * MiB, 1.0),),
        slo_seconds=180.0,
        max_queue_depth=128,
    ),
)


def slo_objectives() -> List[SloObjective]:
    """Burn-rate objectives for the two gateway tenants (95% over 60 s)."""
    return [
        SloObjective(tenant=spec.name, objective=0.95, window_seconds=60.0)
        for spec in TENANTS
    ]


def run_point(
    scheduler: str,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[RequestTracer] = None,
    **overrides: Any,
) -> Dict:
    """Run one scheduler on a fresh deployment.

    ``overrides`` are :data:`EXPERIMENT` params (``seed``, ``duration``,
    ``power_budget_watts``, ``load_scale``, ``detect_races``, ``trace``,
    ``energy``); the rest keep their declared defaults.  The gateway
    starts over spun-down disks (:func:`~repro.experiments.common
    .start_gateway`), is offered ``duration`` seconds of open-loop
    traffic and drains.  Returns the gateway's exact summary plus
    offered-traffic and race accounting.  A
    :class:`~repro.obs.RequestTracer` (passed, or a fresh one with
    ``trace=True``) arms end-to-end request tracing: the summary then
    also carries the critical-path latency attribution, the per-tenant
    SLO burn-rate state, and the flight recorder's dump count.
    ``energy=True`` adds the per-tenant wall-joule books over the
    traffic-and-drain window, whose accounts sum to the meter integral
    (the DESIGN §15 conservation identity).
    """
    params = EXPERIMENT.merged_params(overrides)
    if tracer is None and params["trace"]:
        tracer = RequestTracer()
    monitor: Optional[SloMonitor] = None
    recorder: Optional[FlightRecorder] = None
    if tracer is not None and tracer.enabled:
        # Recorder first: its ring must already hold the triggering
        # trace when the monitor's alert instant fires.
        recorder = FlightRecorder(tracer)
        monitor = SloMonitor(tracer, slo_objectives())
    deployment, gateway, _, meter = start_gateway(
        TENANTS,
        GatewayConfig(
            power_budget_watts=params["power_budget_watts"], scheduler=scheduler
        ),
        seed=params["seed"],
        detect_races=params["detect_races"],
        metrics=metrics,
        tracer=tracer,
        energy=params["energy"],
    )
    generator = OpenLoopTrafficGenerator(
        deployment.sim, gateway, deployment.rng, load_scale=params["load_scale"]
    )
    generator.start(params["duration"])
    end = deployment.sim.now + params["duration"]
    deployment.sim.run(until=end)
    drained = drain(deployment, gateway)
    summary = gateway.summary()
    summary["offered"] = {
        name: {
            "submitted": generator.stats[name].submitted,
            "rejected": generator.stats[name].rejected,
        }
        for name in sorted(generator.stats)
    }
    summary["drain_seconds"] = deployment.sim.now - end
    summary["drained"] = drained
    if meter is not None:
        summary["energy"] = energy_books(meter)
    if params["detect_races"]:
        summary["races"] = list(deployment.sim.races)
    if monitor is not None and recorder is not None and tracer is not None:
        analyzer = CriticalPathAnalyzer()
        requests = [ctx for ctx in tracer.completed if ctx.kind == "request"]
        summary["trace"] = {
            "completed": len(tracer.completed),
            "attribution": analyzer.aggregate(requests),
            "slo": monitor.summary(),
            "flight_dumps": len(recorder.dumps),
        }
        # The tracer may be reused on another deployment; don't let this
        # run's sinks (and their windows) leak into the next one.
        monitor.detach()
        recorder.detach()
    return summary


def _build_result(**params: Any) -> ExperimentResult:
    """Run both schedulers on identically seeded deployments."""
    registry = MetricsRegistry()
    variants: Dict[str, Dict] = {}
    races: List = []
    for scheduler in ("batch", "fifo"):
        # run_point arms a fresh tracer per variant: each deployment
        # restarts sim time at zero, so sharing one would interleave
        # unrelated windows.
        summary = run_point(scheduler, metrics=registry, **params)
        races.extend(summary.pop("races", []))
        variants[scheduler] = summary
    batch, fifo = variants["batch"], variants["fifo"]

    def _exactly_once(summary: Dict) -> bool:
        return (
            summary["failed"] == 0
            and summary["completed"] == summary["admitted"]
            and bool(summary["drained"])
        )

    anchors = {
        # §IV-F: one spin-up amortized over a batch beats one per read.
        "batch_fewer_spin_ups": batch["spin_ups"] < fifo["spin_ups"],
        "batch_p99_lower": batch["latency_p99"] < fifo["latency_p99"],
        "no_requests_lost": _exactly_once(batch) and _exactly_once(fifo),
        "batch_lower_energy": batch["energy_joules"] < fifo["energy_joules"],
    }
    if params["trace"]:
        # Every traced request's phase segments must sum to its
        # measured end-to-end latency — the attribution identity.
        anchors["attribution_identity"] = all(
            variant["trace"]["attribution"]["identity_failures"] == 0
            for variant in variants.values()
        )
    metrics_out = {
        "batch_spin_ups": batch["spin_ups"],
        "fifo_spin_ups": fifo["spin_ups"],
        "batch_p99_seconds": batch["latency_p99"],
        "fifo_p99_seconds": fifo["latency_p99"],
        "batch_energy_joules": batch["energy_joules"],
        "fifo_energy_joules": fifo["energy_joules"],
        "batch_slo_misses": batch["slo_misses"],
        "fifo_slo_misses": fifo["slo_misses"],
    }
    if params["energy"]:
        # The §15 conservation identity: per-account joules sum to the
        # PowerMeter wall integral in both variants.
        anchors["energy_conserved"] = all(
            variant["energy"]["identity"]["conserved"]
            for variant in variants.values()
        )
        for name, summary in (("batch", batch), ("fifo", fifo)):
            metrics_out[f"{name}_wall_joules"] = summary["energy"]["identity"][
                "wall_joules"
            ]
            for account, joules in summary["energy"]["accounts"].items():
                metrics_out[f"{name}_joules[{account}]"] = joules
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
        "Gateway SLO: batch vs FIFO scheduling under one power budget",
        "",
    ]
    headers = [
        "Scheduler", "Completed", "Rejected", "SLO miss", "Spin-ups",
        "Batches", "p50 s", "p99 s", "Energy kJ",
    ]
    rows = []
    for name in ("batch", "fifo"):
        summary = result["variants"][name]
        rows.append(
            [
                name,
                summary["completed"],
                summary["rejected"],
                summary["slo_misses"],
                summary["spin_ups"],
                summary["batches"],
                round(summary["latency_p50"], 2),
                round(summary["latency_p99"], 2),
                round(summary["energy_joules"] / 1000.0, 2),
            ]
        )
    lines.append(format_table(headers, rows))
    if any("trace" in result["variants"][n] for n in ("batch", "fifo")):
        lines.append("")
        lines.append("Latency attribution (share of traced request time):")
        for name in ("batch", "fifo"):
            summary = result["variants"][name]
            if "trace" not in summary:
                continue
            attribution = summary["trace"]["attribution"]
            shares = attribution["shares"]
            parts = ", ".join(
                f"{component}={shares[component]:.1%}"
                for component in sorted(shares, key=lambda c: -shares[c])
                if shares[component] > 0.0005
            )
            lines.append(f"  {name}: {parts or 'no traced requests'}")
            slo = summary["trace"]["slo"]
            fired = sum(t["alerts"] for t in slo["tenants"].values())
            lines.append(
                f"  {name}: traces={attribution['traces']} "
                f"identity_failures={attribution['identity_failures']} "
                f"slo_alerts={fired}"
            )
    if any("energy" in result["variants"][n] for n in ("batch", "fifo")):
        lines.append("")
        lines.append("Energy attribution (wall joules by account):")
        for name in ("batch", "fifo"):
            summary = result["variants"][name]
            if "energy" not in summary:
                continue
            energy = summary["energy"]
            accounts = energy["accounts"]
            parts = ", ".join(
                f"{account}={accounts[account]:.0f}J"
                for account in sorted(accounts, key=lambda a: -accounts[a])
            )
            identity = energy["identity"]
            lines.append(f"  {name}: {parts}")
            lines.append(
                f"  {name}: wall={identity['wall_joules']:.0f}J "
                f"residual={identity['residual']:.9f}J "
                f"conserved={identity['conserved']} "
                f"spin_up_blames={energy['spin_up_blames']}"
            )
    lines.append("")
    for name, holds in result["anchors"].items():
        lines.append(f"  anchor {name}: {'OK' if holds else 'FAILED'}")
    return "\n".join(lines)


EXPERIMENT = Experiment(
    name="gateway_slo",
    paper_ref="§IV-F / Table III (request tier)",
    description="Multi-tenant gateway: power-budgeted batching vs FIFO",
    builder=_build_result,
    params={
        "seed": 11,
        "duration": 180.0,
        "power_budget_watts": 24.0,
        "load_scale": 1.0,
        "detect_races": False,
        "trace": False,
        "energy": True,
    },
    # Ledger and tracer stay disarmed: the CI gate holds this run to
    # 1.1x its committed wall time plus a grace of at most that wall
    # (2.1x a 0.31 s record), the NULL_TRACER no-op proof.
    smoke={"duration": 60.0, "energy": False},
)
