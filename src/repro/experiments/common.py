"""Shared helpers for the paper-reproduction experiments.

Besides table formatting and the fabric set-up helpers, this holds the
one set-up sequence of the request-tier experiments (gateway_slo,
shardstore_small_objects, tiering_staging): :func:`start_gateway`,
:func:`drain` and :func:`energy_books`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.deployment import Deployment, DeploymentConfig, build_deployment
from repro.fabric.switching import SwitchConflict, execute_plan, plan_switches
from repro.fabric.topology import Fabric
from repro.gateway import (
    Gateway,
    GatewayConfig,
    GatewayObject,
    TenantSpec,
    mount_gateway_spaces,
)
from repro.obs import (
    ConservationAuditor,
    EnergyLedger,
    MetricsRegistry,
    RequestTracer,
)
from repro.power import PowerMeter
from repro.tiering import pinned_disks_for
from repro.units import MiB

__all__ = [
    "conflict_free_batch",
    "drain",
    "energy_books",
    "format_table",
    "gather_disks_on_host",
    "relative_error",
    "start_gateway",
]

#: Request tier: settle time before mounting, and one space per disk.
SETTLE_SECONDS = 15.0
SPACE_BYTES = 64 * MiB
#: Cap on post-traffic drain time (a saturated FIFO run needs a while).
DRAIN_CAP_SECONDS = 900.0
DRAIN_STEP_SECONDS = 5.0


def _format_cell(value, spec: Optional[str]) -> str:
    if value is None:
        return "-"
    if spec:
        return format(value, spec)
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    formats: Optional[Sequence[Optional[str]]] = None,
) -> str:
    """Fixed-width text table (experiment reports).

    ``formats`` optionally gives one :func:`format` spec per column
    (e.g. ``".4f"`` or ``"+.1%"``); ``None`` entries keep the default
    rendering (floats as ``.1f``).  Without it, small values such as
    relative errors collapse to ``0.0`` — the per-column hook exists
    precisely so result renderers can keep them legible.
    """
    specs: List[Optional[str]] = list(formats) if formats is not None else []
    specs += [None] * (len(headers) - len(specs))
    columns = [
        [str(h)] + [_format_cell(r[i], specs[i]) for r in rows]
        for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in range(len(rows)):
        lines.append("  ".join(columns[c][r + 1].rjust(widths[c]) for c in range(len(headers))))
    return "\n".join(lines)


def relative_error(measured: float, paper: float) -> float:
    return (measured - paper) / paper if paper else 0.0


def conflict_free_batch(
    fabric: Fabric, target_host: str, size: int
) -> List[Tuple[str, str]]:
    """Pick ``size`` disks that can switch to ``target_host`` in one
    conflict-free command (growing the batch greedily, dry-running
    Algorithm 1 on each extension)."""
    batch: List[Tuple[str, str]] = []
    chosen = set()
    for disk in fabric.disks:
        if len(batch) >= size:
            break
        if disk.node_id in chosen:
            continue
        if fabric.attached_host(disk.node_id) == target_host:
            continue
        candidate = batch + [(disk.node_id, target_host)]
        try:
            plan_switches(fabric, candidate)
        except SwitchConflict as conflict:
            # A shared switch pins sibling disks: moving the whole group
            # together is legal (they are all part of the command), so
            # retry with the victims included — if that still fits.
            victims = [
                v
                for v in conflict.victims
                if v not in chosen and fabric.attached_host(v) != target_host
            ]
            if not victims or len(batch) + 1 + len(victims) > size:
                continue
            candidate = candidate + [(v, target_host) for v in victims]
            try:
                plan_switches(fabric, candidate)
            except SwitchConflict:
                continue
        batch = candidate
        chosen.update(d for d, _ in candidate)
    if len(batch) != size:
        raise ValueError(
            f"only {len(batch)} disks can move to {target_host!r} conflict-free"
        )
    return batch[:size]


def gather_disks_on_host(deployment: Deployment, host: str, wanted: int) -> List[str]:
    """Physically move leaf groups until ``host`` serves ``wanted`` disks.

    Operates directly on the fabric (pre-experiment setup, not part of
    the measured path) and resyncs the USB views.
    """
    fabric = deployment.fabric
    mine = [d for d, h in fabric.attachment_map().items() if h == host]
    group = 0
    num_groups = len(fabric.disks) // 2
    while len(mine) < wanted and group < num_groups:
        siblings = [f"disk{2 * group}", f"disk{2 * group + 1}"]
        if fabric.attached_host(siblings[0]) != host:
            try:
                plan = plan_switches(fabric, [(d, host) for d in siblings])
                execute_plan(fabric, plan, metrics=deployment.metrics)
            except SwitchConflict:
                pass
        group += 1
        mine = [d for d, h in fabric.attachment_map().items() if h == host]
    if len(mine) < wanted:
        raise ValueError(f"could not gather {wanted} disks on {host!r}")
    deployment.bus.sync()
    return mine[:wanted]


def start_gateway(
    tenants: Sequence[TenantSpec],
    config: GatewayConfig,
    seed: int,
    detect_races: bool,
    metrics: Optional[MetricsRegistry],
    tracer: Optional[RequestTracer] = None,
    energy: bool = False,
    hot_spaces: int = 0,
) -> Tuple[Deployment, Gateway, List[GatewayObject], Optional[PowerMeter]]:
    """The request-tier set-up: a started gateway over spun-down disks.

    Builds and settles a deployment, mounts one :data:`SPACE_BYTES`
    space per disk, runs to the next whole second (so a control-plane
    change does not move the traffic start), spins every disk down,
    then attaches and starts a gateway with ``config``.  ``hot_spaces``
    pins the disks of that many spaces (the first, sorted) as an
    always-spinning hot tier.  ``energy=True`` arms a
    :class:`~repro.power.PowerMeter` with an
    :class:`~repro.obs.EnergyLedger` from the spin-down on, and a
    private tracer when none is given, since per-tenant attribution
    rides the trace threading; the meter is returned, else ``None``.
    """
    if energy and tracer is None:
        tracer = RequestTracer()
    deployment = build_deployment(
        config=DeploymentConfig(detect_races=detect_races, seed=seed),
        metrics=metrics,
        tracer=tracer,
    )
    deployment.settle(SETTLE_SECONDS)
    objects, spaces = mount_gateway_spaces(deployment, SPACE_BYTES)
    deployment.run_to_whole_second()
    for disk_id in sorted(deployment.disks):
        deployment.disks[disk_id].spin_down()
    meter: Optional[PowerMeter] = None
    if energy:
        meter = PowerMeter(deployment, ledger=EnergyLedger())
        meter.start()
    if hot_spaces:
        config = replace(config, pinned_disks=pinned_disks_for(objects, hot_spaces))
    gateway = Gateway(deployment.sim, tenants, config)
    gateway.attach(objects, spaces, deployment.disks, host_of=deployment.host_of_disk)
    gateway.start()
    return deployment, gateway, objects, meter


def drain(deployment: Deployment, gateway: Gateway) -> bool:
    """Run until the gateway drains, at most :data:`DRAIN_CAP_SECONDS`."""
    deadline = deployment.sim.now + DRAIN_CAP_SECONDS
    while not gateway.drained() and deployment.sim.now < deadline:
        deployment.sim.run(until=deployment.sim.now + DRAIN_STEP_SECONDS)
    return gateway.drained()


def energy_books(meter: PowerMeter) -> Dict[str, Any]:
    """The ledger's books now and the DESIGN §15 identity audit.

    Every account sums to the meter's wall integral; ``export`` is the
    canonical ledger document (accounts, disk books, per-request
    charges and spin-up blames).
    """
    ledger = meter.ledger
    assert ledger is not None  # start_gateway arms the meter with one
    now = meter.deployment.sim.now
    return {
        "identity": ConservationAuditor(meter, ledger).audit(now),
        "accounts": ledger.account_joules(),
        "tiers": ledger.tier_joules(),
        "spin_up_blames": len(ledger.blames),
        "requests_charged": len(ledger.requests),
        "export": ledger.to_dict(),
    }
