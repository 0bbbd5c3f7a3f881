"""Per-tenant / per-request energy attribution with a conservation identity.

The :class:`EnergyLedger` books every joule a deployment draws into
attributable components — per-disk active / spin-up / idle / standby
energy plus an ``overhead`` account (fabric, fans, host adapters) — and
charges disk-active and spin-up energy to the tenant and request that
caused it, using the ownership stamps the disk layer records from the
existing ``TraceContext`` threading (gateway admission → batch
scheduler → ClientLib → iSCSI → disk).

Books are kept in wall joules: DC draw divided by the PSU efficiency,
so disk accounts carry their share of conversion loss.

Accounts (DESIGN §15):

* ``tenant:<name>`` — active/spin-up joules of a disk interval owned by
  a live trace of that tenant.
* ``system`` — owned disk work with no tenant (settle-phase I/O,
  traces minted without a tenant, stale scopes after crash/remount).
* ``idle`` — idle and spun-down (standby electronics) disk joules; no
  request caused them, so no tenant is blamed.
* ``overhead`` — everything that is not a disk: fabric switches/hubs,
  fans and USB host adapters.

Draw is constant between disk power-state transitions and fabric power
changes (relay flips, switch turns), so the ledger books at exactly
those points and the books are the true integral, not a sample of it.
The headline invariant mirrors the latency-attribution identity: the
per-account joules **sum to the PowerMeter wall-energy integral**,
which the meter computes by a separate route (disk state residencies).
The only slack is floating-point summation order, bounded by the
documented relative tolerance of :class:`ConservationAuditor`
(default ``1e-9``).

When unarmed (no ledger passed to ``PowerMeter``) the only cost on the
request path is the ownership stamp — two attribute writes per I/O.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Protocol, TYPE_CHECKING

from repro.units import Joules, SimSeconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (disk -> obs)
    from repro.disk.device import OwnerStamp, SimulatedDisk
    from repro.disk.states import DiskPowerState
    from repro.obs.trace import TraceScope

__all__ = [
    "ACCOUNT_IDLE",
    "ACCOUNT_OVERHEAD",
    "ACCOUNT_SYSTEM",
    "ConservationAuditor",
    "DiskEnergyBook",
    "EnergyConservationError",
    "EnergyLedger",
    "SpinUpBlame",
    "tenant_account",
]

#: Idle + standby disk watts: no request caused them.
ACCOUNT_IDLE = "idle"
#: Fabric + fans + host adapters: the non-disk draw.
ACCOUNT_OVERHEAD = "overhead"
#: Owned disk work with no tenant attached (settle I/O, stale scopes).
ACCOUNT_SYSTEM = "system"
#: Prefix for tenant accounts, e.g. ``tenant:interactive``.
TENANT_PREFIX = "tenant:"

#: Default tier name for disks never classified via :meth:`EnergyLedger.set_tier`.
DEFAULT_TIER = "default"

#: ``DiskPowerState`` value -> disk energy bucket (powered off draws 0 W
#: and is never booked).
_BUCKETS = {
    "active": "active",
    "spinning_up": "spinup",
    "idle": "idle",
    "spun_down": "standby",
}
#: Buckets billed to the owner of the interval rather than to ``idle``.
_OWNED_BUCKETS = ("active", "spinup")


def tenant_account(tenant: Optional[str]) -> str:
    """Account name for a tenant (``system`` when no tenant is known)."""
    return TENANT_PREFIX + tenant if tenant else ACCOUNT_SYSTEM


class EnergyConservationError(AssertionError):
    """The attributed joules failed to sum to the wall-energy integral."""


@dataclass(frozen=True)
class SpinUpBlame:
    """One spin-up, stamped with the exact sim time and owning trace."""

    time: SimSeconds
    disk_id: str
    account: str
    trace_id: int  # -1 when no owning request

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "disk_id": self.disk_id,
            "account": self.account,
            "trace_id": self.trace_id,
        }


@dataclass
class DiskEnergyBook:
    """Per-disk joules split by spin-state bucket."""

    active: float = 0.0
    spinup: float = 0.0
    idle: float = 0.0
    standby: float = 0.0

    @property
    def total(self) -> float:
        return self.active + self.spinup + self.idle + self.standby

    def add(self, bucket: str, joules: float) -> None:
        if bucket == "active":
            self.active += joules
        elif bucket == "spinup":
            self.spinup += joules
        elif bucket == "idle":
            self.idle += joules
        elif bucket == "standby":
            self.standby += joules
        else:
            raise ValueError(f"unknown disk energy bucket {bucket!r}")

    def as_dict(self) -> Dict[str, float]:
        return {
            "active": self.active,
            "spinup": self.spinup,
            "idle": self.idle,
            "standby": self.standby,
            "total": self.total,
        }


class EnergyLedger:
    """Double-entry joule books, booked whenever draw changes.

    ``PowerMeter.start`` wires it up (pass ``ledger=`` at construction):
    :meth:`watch` subscribes to each disk's state transitions, and
    :meth:`step_overhead` receives every change of the non-disk draw.
    Each closed interval is booked once, at ``watts × span``.
    :meth:`finalize` books the still-open intervals up to an end time.
    """

    def __init__(self) -> None:
        #: cumulative joules per account name.
        self.accounts: Dict[str, float] = {}
        #: cumulative joules per disk, split by spin-state bucket.
        self.disks: Dict[str, DiskEnergyBook] = {}
        #: cumulative joules per owning trace id (spin-up + active).
        self.requests: Dict[int, float] = {}
        #: spin-up blame events, in exact sim-time order.
        self.blames: List[SpinUpBlame] = []
        #: disk id -> tier name (see :meth:`set_tier`).
        self.tiers: Dict[str, str] = {}
        self._watched: Dict[str, "SimulatedDisk"] = {}
        # disk id -> wall watts per power state.
        self._wall_watts: Dict[str, Mapping["DiskPowerState", float]] = {}
        # disk id -> seconds of its open interval already booked (by
        # finalize, or before the disk was watched).
        self._booked_span: Dict[str, float] = {}
        self._overhead_watts = 0.0
        self._overhead_since: Optional[float] = None

    # -- classification ---------------------------------------------------

    def set_tier(self, disk_id: str, tier: str) -> None:
        """Classify a disk into a named tier (``hot`` / ``cold`` / ...)."""
        self.tiers[disk_id] = tier

    def tier_of(self, disk_id: str) -> str:
        return self.tiers.get(disk_id, DEFAULT_TIER)

    # -- feed (called by PowerMeter / disk listeners) ----------------------

    def watch(
        self, disk: "SimulatedDisk", wall_watts: Mapping["DiskPowerState", float]
    ) -> None:
        """Book ``disk`` from now on at ``wall_watts[state]``.

        The part of the open interval that lies before this call is
        never booked.
        """
        self._watched[disk.disk_id] = disk
        self._wall_watts[disk.disk_id] = wall_watts
        self._booked_span[disk.disk_id] = disk.open_interval()[1]
        disk.add_state_listener(self.on_interval)
        disk.add_spin_up_listener(self.on_spin_up)

    def on_spin_up(self, disk_id: str, now: float, blame: "TraceScope") -> None:
        """Disk spin-up listener: record exact-time blame for the surge."""
        owner = blame.owner()
        account = tenant_account(owner[0]) if owner is not None else ACCOUNT_SYSTEM
        trace_id = owner[1] if owner is not None else -1
        self.blames.append(
            SpinUpBlame(SimSeconds(now), disk_id, account, trace_id)
        )

    def on_interval(
        self,
        disk_id: str,
        state: "DiskPowerState",
        span: float,
        owner: "OwnerStamp",
    ) -> None:
        """Disk state listener: book the power-state interval that closed."""
        self._book_disk(disk_id, state, span, owner)
        self._booked_span[disk_id] = 0.0

    def step_overhead(self, now: float, watts: float) -> None:
        """The non-disk wall draw changes to ``watts`` at ``now``."""
        self._close_overhead(now)
        self._overhead_watts = watts
        self._overhead_since = now

    def finalize(self, end: float) -> None:
        """Book every still-open interval up to ``end``.

        Idempotent for a fixed ``end``; a later transition books only
        the part of its interval that lies beyond ``end``.
        """
        self._close_overhead(end)
        for disk_id, disk in self._watched.items():
            state, span, owner = disk.open_interval()
            span += end - disk.sim.now
            if span > self._booked_span[disk_id]:
                self._book_disk(disk_id, state, span, owner)
                self._booked_span[disk_id] = span

    def _close_overhead(self, now: float) -> None:
        since = self._overhead_since
        if since is not None and now > since:
            self.book(ACCOUNT_OVERHEAD, self._overhead_watts * (now - since))
            self._overhead_since = now

    def _book_disk(
        self,
        disk_id: str,
        state: "DiskPowerState",
        span: float,
        owner: "OwnerStamp",
    ) -> None:
        span -= self._booked_span[disk_id]
        watts = self._wall_watts[disk_id][state]
        if span <= 0.0 or watts == 0.0:
            return
        bucket = _BUCKETS[state.value]
        if bucket in _OWNED_BUCKETS:
            account = tenant_account(owner[0] if owner else None)
            trace_id = owner[1] if owner is not None else -1
        else:
            account = ACCOUNT_IDLE
            trace_id = -1
        self.book(account, watts * span, disk_id, bucket, trace_id)

    def book(
        self,
        account: str,
        joules: float,
        disk_id: str = "",
        bucket: str = "",
        trace_id: int = -1,
    ) -> None:
        """Credit ``joules`` to an account, a disk bucket and a trace."""
        self.accounts[account] = self.accounts.get(account, 0.0) + joules
        if disk_id:
            book = self.disks.get(disk_id)
            if book is None:
                book = self.disks.setdefault(disk_id, DiskEnergyBook())
            book.add(bucket, joules)
        if trace_id >= 0:
            self.requests[trace_id] = self.requests.get(trace_id, 0.0) + joules

    # -- queries -----------------------------------------------------------

    def attributed_joules(self) -> Joules:
        """Total joules across every account (summed in sorted-key order)."""
        return Joules(
            sum(self.accounts[name] for name in sorted(self.accounts))
        )

    def account_joules(self) -> Dict[str, float]:
        """Per-account cumulative joules, sorted by account name."""
        return {name: self.accounts[name] for name in sorted(self.accounts)}

    def tier_joules(self) -> Dict[str, Dict[str, float]]:
        """Per-tier joules aggregated from the per-disk books."""
        tiers: Dict[str, DiskEnergyBook] = {}
        for disk_id in sorted(self.disks):
            agg = tiers.setdefault(self.tier_of(disk_id), DiskEnergyBook())
            book = self.disks[disk_id]
            agg.active += book.active
            agg.spinup += book.spinup
            agg.idle += book.idle
            agg.standby += book.standby
        return {name: tiers[name].as_dict() for name in sorted(tiers)}

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe, key-sorted snapshot of every book."""
        return {
            "accounts": self.account_joules(),
            "attributed_joules": self.attributed_joules(),
            "tiers": self.tier_joules(),
            "disks": {
                disk_id: self.disks[disk_id].as_dict()
                for disk_id in sorted(self.disks)
            },
            "requests": {
                str(trace_id): self.requests[trace_id]
                for trace_id in sorted(self.requests)
            },
            "spin_up_blames": [blame.as_dict() for blame in self.blames],
        }

    def to_json(self) -> str:
        """Canonical JSON: byte-identical across same-seed replays."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class ConservationAuditor:
    """Asserts the energy conservation identity against the true integral.

    ``attributed == wall`` up to floating-point summation order: the
    ledger books each disk interval as it closes, while the meter sums
    the disks' own state residencies, and both integrate the same
    overhead step function.  Both are exact, so the only slack is
    reassociation error — bounded by ``rel_tolerance`` scaled by the
    wall energy (documented default ``1e-9``, i.e. nanojoules per
    joule).
    """

    def __init__(
        self,
        meter: "MeterLike",
        ledger: EnergyLedger,
        rel_tolerance: float = 1e-9,
    ) -> None:
        self.meter = meter
        self.ledger = ledger
        self.rel_tolerance = rel_tolerance

    def audit(self, end: float) -> Dict[str, Any]:
        """Roll the ledger to ``end`` and compare against the meter."""
        self.ledger.finalize(end)
        wall = float(self.meter.energy_joules(SimSeconds(end)))
        attributed = float(self.ledger.attributed_joules())
        residual = attributed - wall
        bound = self.rel_tolerance * max(1.0, abs(wall))
        return {
            "wall_joules": wall,
            "attributed_joules": attributed,
            "residual": residual,
            "tolerance": bound,
            "conserved": abs(residual) <= bound,
        }

    def assert_conserved(self, end: float) -> Dict[str, Any]:
        """Audit and raise :class:`EnergyConservationError` on failure."""
        report = self.audit(end)
        if not report["conserved"]:
            raise EnergyConservationError(
                "energy attribution identity violated: "
                f"attributed {report['attributed_joules']!r} J vs wall "
                f"{report['wall_joules']!r} J "
                f"(residual {report['residual']!r} > {report['tolerance']!r})"
            )
        return report


class MeterLike(Protocol):
    """Structural stand-in for ``PowerMeter`` (avoids an import cycle)."""

    def energy_joules(self, end_time: Optional[SimSeconds] = None) -> Joules:
        """Wall-energy integral from the meter's start up to ``end_time``."""
        ...
