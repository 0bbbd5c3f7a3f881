"""Energy attribution ledger and its conservation identity.

Property under test — the *energy conservation identity* (DESIGN §15):
the per-account joules booked by the :class:`EnergyLedger` at disk and
fabric power transitions (``tenant:*`` + ``system`` + ``idle`` +
``overhead``) sum to the :class:`PowerMeter` wall-energy integral,
which the meter computes separately from disk state residencies, up to
the auditor's floating-point tolerance.  Checked on booked intervals,
against a closed form on one disk, against a fine-step sampling oracle,
on a clean end-to-end gateway run, under a mid-batch host crash with
remount, and across a double run for byte-identical canonical exports.
"""

import json

import pytest

from repro.cluster.deployment import DeploymentConfig, build_deployment
from repro.disk.device import IoRequest, SimulatedDisk, state_watts
from repro.disk.states import DiskPowerState
from repro.experiments import gateway_slo, tiering_staging
from repro.gateway import (
    Gateway,
    GatewayConfig,
    ObjectRef,
    ReadObject,
    TenantSpec,
    mount_gateway_spaces,
)
from repro.obs import (
    ConservationAuditor,
    EnergyConservationError,
    EnergyLedger,
    RequestTracer,
    tenant_account,
)
from repro.power import PowerMeter
from repro.power.systems import PSU_EFFICIENCY
from repro.sim import Simulator
from repro.units import MiB

TENANT = TenantSpec(name="t0", weight=1.0, slo_seconds=600.0, max_queue_depth=64)


class FakeScope:
    """Stand-in for a TraceScope: the ``owner()`` contract, no phases."""

    enabled = False

    def __init__(self, owner):
        self._owner = owner

    def owner(self):
        return self._owner

    def phase(self, component):
        pass


def dc_watts(disk):
    """State -> DC watts for ``disk``: books in DC joules."""
    profile = disk.default_power_profile()
    return {state: state_watts(profile, state) for state in DiskPowerState}


class TestLedgerArithmetic:
    def test_step_function_integration(self):
        """Each overhead step closes at the watts it opened with."""
        ledger = EnergyLedger()
        ledger.step_overhead(0.0, 10.0)
        ledger.step_overhead(2.0, 99.0)
        assert ledger.accounts == {"overhead": 20.0}
        ledger.finalize(5.0)
        assert ledger.accounts == {"overhead": 20.0 + 3 * 99.0}

    def test_finalize_is_idempotent(self):
        ledger = EnergyLedger()
        ledger.step_overhead(0.0, 4.0)
        ledger.finalize(10.0)
        ledger.finalize(10.0)
        ledger.finalize(7.0)  # never rolls backwards
        assert ledger.accounts == {"overhead": 40.0}

    def test_disk_books_and_request_charges(self):
        ledger = EnergyLedger()
        ledger.book("tenant:a", 16.0, disk_id="disk0", bucket="active", trace_id=7)
        ledger.book("idle", 10.0, disk_id="disk1", bucket="idle")
        ledger.book("overhead", 6.0)
        assert ledger.disks["disk0"].active == 16.0
        assert ledger.disks["disk1"].idle == 10.0
        assert ledger.requests == {7: 16.0}
        assert ledger.attributed_joules() == pytest.approx(32.0)

    def test_tier_aggregation(self):
        ledger = EnergyLedger()
        ledger.set_tier("disk0", "hot")
        ledger.book("tenant:a", 6.0, disk_id="disk0", bucket="active", trace_id=1)
        ledger.book("idle", 4.0, disk_id="disk1", bucket="standby")
        tiers = ledger.tier_joules()
        assert tiers["hot"]["active"] == pytest.approx(6.0)
        # Unclassified disks fall into the "default" tier.
        assert tiers["default"]["standby"] == pytest.approx(4.0)

    def test_spin_up_blame_extracts_owner(self):
        ledger = EnergyLedger()
        ledger.on_spin_up("disk3", 1.25, FakeScope(("t0", 42)))
        ledger.on_spin_up("disk4", 2.5, FakeScope(None))
        assert ledger.blames[0].account == "tenant:t0"
        assert ledger.blames[0].trace_id == 42
        assert ledger.blames[0].time == 1.25
        assert ledger.blames[1].account == "system"
        assert ledger.blames[1].trace_id == -1

    def test_export_is_canonical_json(self):
        ledger = EnergyLedger()
        ledger.book("tenant:a", 1.0)
        text = ledger.to_json()
        assert text == json.dumps(
            ledger.to_dict(), sort_keys=True, separators=(",", ":")
        )
        assert json.loads(text)["accounts"] == {"tenant:a": 1.0}

    def test_tenant_account_names(self):
        assert tenant_account("alice") == "tenant:alice"
        assert tenant_account(None) == "system"


class TestConservationAuditor:
    def test_violation_raises(self):
        class ConstantMeter:
            def energy_joules(self, end_time=None):
                return 100.0

        ledger = EnergyLedger()
        ledger.step_overhead(0.0, 1.0)
        auditor = ConservationAuditor(ConstantMeter(), ledger)
        with pytest.raises(EnergyConservationError):
            auditor.assert_conserved(1.0)

    def test_identity_on_synthetic_meter(self):
        class ConstantMeter:
            def energy_joules(self, end_time=None):
                return 30.0

        ledger = EnergyLedger()
        ledger.book("tenant:a", 20.0)
        ledger.step_overhead(0.0, 1.0)
        auditor = ConservationAuditor(ConstantMeter(), ledger)
        report = auditor.assert_conserved(10.0)
        assert report["conserved"]
        assert report["residual"] == pytest.approx(0.0, abs=1e-9)


def test_closed_form_single_disk():
    """Standby, a tenant-blamed spin-up, one I/O, idle, spin-down: the
    books equal the hand-computed joules of each interval."""
    sim = Simulator()
    disk = SimulatedDisk(sim, "disk0", initial_state=DiskPowerState.SPUN_DOWN)
    ledger = EnergyLedger()
    ledger.watch(disk, dc_watts(disk))
    request = IoRequest(offset=0, size=8 * MiB, is_read=True)
    service = disk.model.service_time(disk._spec_for(request))
    spin_up = disk.spec.spin_up_time

    def io():
        yield disk.submit(request, scope=FakeScope(("t0", 5)))

    sim.defer(2.0, lambda: sim.process(io()))
    sim.defer(30.0, disk.spin_down)
    sim.run(until=40.0)
    ledger.finalize(sim.now)

    profile = disk.default_power_profile()
    idle = 30.0 - (2.0 + spin_up + service)
    standby = 2.0 + (40.0 - 30.0)
    expected = {
        "tenant:t0": (spin_up + service) * profile.active,
        "idle": idle * profile.idle + standby * profile.spun_down,
    }
    assert set(ledger.accounts) == set(expected)
    for account, joules in expected.items():
        assert ledger.accounts[account] == pytest.approx(joules, rel=1e-9)
    book = ledger.disks["disk0"]
    assert book.spinup == pytest.approx(spin_up * profile.active, rel=1e-9)
    assert book.active == pytest.approx(service * profile.active, rel=1e-9)
    assert ledger.requests == {5: pytest.approx(expected["tenant:t0"], rel=1e-9)}
    assert float(ledger.attributed_joules()) == pytest.approx(
        disk.energy_joules(), rel=1e-9
    )


def build_metered(seed=13, **config_kwargs):
    """A traced deployment with the ledger armed, gateway attached."""
    tracer = RequestTracer()
    dep = build_deployment(config=DeploymentConfig(seed=seed), tracer=tracer)
    dep.settle(15.0)
    objects, spaces = mount_gateway_spaces(dep, 64 * MiB)
    for disk_id in sorted(dep.disks):
        dep.disks[disk_id].spin_down()
    ledger = EnergyLedger()
    meter = PowerMeter(dep, ledger=ledger)
    meter.start()
    gateway = Gateway(
        dep.sim, (TENANT,), GatewayConfig(scheduler="batch", **config_kwargs)
    )
    gateway.attach(objects, spaces, dep.disks, host_of=dep.host_of_disk)
    gateway.start()
    return dep, gateway, objects, ledger, meter


def drain(dep, gateway, cap=300.0):
    deadline = dep.sim.now + cap
    dep.sim.run(until=dep.sim.now + 1.0)
    while not gateway.drained() and dep.sim.now < deadline:
        dep.sim.run(until=dep.sim.now + 5.0)
    assert gateway.drained(), "gateway failed to drain"


def test_clean_run_conservation_and_tenant_charges():
    dep, gateway, objects, ledger, meter = build_metered()
    target = objects[0]

    def burst():
        for i in range(4):
            gateway.submit_op(
                ReadObject("t0", ObjectRef(target.space_id, i * MiB, 1 * MiB))
            )

    dep.sim.defer(0.0, burst)
    drain(dep, gateway)
    report = ConservationAuditor(meter, ledger).assert_conserved(dep.sim.now)
    assert report["wall_joules"] > 0.0
    accounts = ledger.account_joules()
    # The burst's spin-up + transfer joules land on the tenant book.
    assert accounts.get("tenant:t0", 0.0) > 0.0
    assert accounts["idle"] > 0.0 and accounts["overhead"] > 0.0
    # Every spin-up the traffic caused is blamed on the causing trace.
    assert ledger.blames
    assert all(b.account == "tenant:t0" for b in ledger.blames)
    assert all(b.trace_id >= 0 for b in ledger.blames)


def test_spin_up_blame_carries_exact_time():
    """Blame events fire from the disk's spin-up transition itself, so
    they carry the exact sim time, not a whole-second boundary."""
    dep, gateway, objects, ledger, meter = build_metered()
    target = objects[0]
    dep.sim.defer(
        0.333,
        lambda: gateway.submit_op(
            ReadObject("t0", ObjectRef(target.space_id, 0, 1 * MiB))
        ),
    )
    drain(dep, gateway)
    assert ledger.blames
    blame = ledger.blames[0]
    # The surge started when the request reached the disk, strictly
    # between whole seconds.
    assert blame.time > 0.333
    assert blame.time != int(blame.time)


def test_mid_batch_crash_remount_conservation():
    """The hard case from the trace suite, now for joules: the endpoint
    dies mid-batch, the ClientLib remounts and retries, stale scopes
    stamp nothing — and the books must still sum to the meter."""
    dep, gateway, objects, ledger, meter = build_metered()
    target = objects[0]
    host = dep.host_of_disk(target.disk_id)
    assert host is not None

    def burst():
        for i in range(6):
            gateway.submit_op(
                ReadObject("t0", ObjectRef(target.space_id, i * MiB, 1 * MiB))
            )

    dep.sim.defer(0.0, burst)
    dep.sim.run(until=dep.sim.now + 8.05)
    assert gateway.outstanding() > 0, "crash must land mid-batch"
    dep.crash_host(host)
    drain(dep, gateway)

    assert gateway.stats.completed == 6
    # The meter's disk part comes from residencies, not from the ledger.
    report = ConservationAuditor(meter, ledger).assert_conserved(dep.sim.now)
    assert report["conserved"]
    # Retried work re-stamped under live scopes still bills the tenant.
    assert ledger.account_joules().get("tenant:t0", 0.0) > 0.0


def test_run_point_summaries_conserve():
    summary = gateway_slo.run_point("batch", seed=11, duration=10.0, energy=True)
    assert summary["energy"]["identity"]["conserved"], summary["energy"]["identity"]

    summary = tiering_staging.run_point(
        "staged",
        seed=23,
        num_writes=40,
        num_cold_reads=8,
        write_seconds=120.0,
        total_seconds=220.0,
        energy=True,
    )
    identity = summary["energy"]["identity"]
    assert identity["conserved"], identity
    # Migration I/O bills the internal migration tenant, not users, and
    # the tier classification splits the books hot vs cold.
    accounts = summary["energy"]["accounts"]
    assert accounts.get("tenant:migration", 0.0) > 0.0
    tiers = summary["energy"]["tiers"]
    assert set(tiers) == {"cold", "hot"}


def test_double_run_energy_exports_are_byte_identical():
    exports = []
    for _ in range(2):
        summary = gateway_slo.run_point("batch", seed=11, duration=10.0, energy=True)
        exports.append(
            json.dumps(
                summary["energy"]["export"], sort_keys=True, separators=(",", ":")
            )
        )
    assert exports[0] == exports[1], "energy export differs across replays"
    assert exports[0], "export was empty"


def test_meter_tracks_relay_flips_by_subscription():
    """Satellite regression: the meter mirrors relay state through the
    relay bank's listeners, not by re-deriving the gating map from disk
    ids on every sample."""
    dep = build_deployment(config=DeploymentConfig(seed=3))
    meter = PowerMeter(dep)
    assert meter.fabric_model.powered["disk0"] is True
    dep.relays.open_relay("disk0")
    # The flip lands immediately — no sample needed in between.
    assert meter.fabric_model.powered["disk0"] is False
    assert meter.fabric_model.powered["bridge0"] is False
    dep.relays.close_relay("disk0")
    assert meter.fabric_model.powered["disk0"] is True
    # A silent mutation that bypasses the bank's notify hook is NOT
    # seen: state flows through the subscription, proving the old
    # per-sample resync loop is gone.
    dep.relays.closed["disk0"] = False
    meter.instantaneous_watts()
    assert meter.fabric_model.powered["disk0"] is True


def test_overhead_steps_only_where_draw_changes():
    """Relay flips move the fabric draw and add a breakpoint; a switch
    turn or a failure bumps the fabric epoch but adds one only if the
    draw actually changed.  The overhead book is the step integral."""
    dep = build_deployment(config=DeploymentConfig(seed=3))
    dep.settle(5.0)
    ledger = EnergyLedger()
    meter = PowerMeter(dep, ledger=ledger)
    meter.start()
    t0 = dep.sim.now
    dep.sim.defer(1.0, lambda: dep.relays.open_relay("disk0"))
    dep.sim.defer(2.0, lambda: dep.fabric.node("disk5").fail())
    dep.sim.defer(3.0, lambda: dep.relays.close_relay("disk0"))
    dep.sim.run(until=t0 + 5.0)
    ConservationAuditor(meter, ledger).assert_conserved(dep.sim.now)
    (start, on), (flip, off), (back, on_again) = meter.series
    assert (start, flip, back) == (t0, t0 + 1.0, t0 + 3.0)
    assert off < on == on_again
    assert ledger.accounts["overhead"] == pytest.approx(
        on * 1.0 + off * 2.0 + on * 2.0, rel=1e-12
    )


def test_unowned_disk_activity_books_to_system():
    """Direct disk I/O outside any trace scope is owned by nobody; its
    active joules must land on the ``system`` account, never a tenant."""
    sim = Simulator()
    disk = SimulatedDisk(sim, "disk0")
    ledger = EnergyLedger()
    ledger.watch(disk, dc_watts(disk))

    def io():
        yield disk.submit(IoRequest(offset=0, size=256 * MiB, is_read=True))

    sim.defer(0.5, lambda: sim.process(io()))
    sim.run(until=12.0)
    ledger.finalize(sim.now)
    active = disk.residency(DiskPowerState.ACTIVE)
    assert active > 1.0, "transfer never ran"
    profile = disk.default_power_profile()
    assert set(ledger.accounts) == {"idle", "system"}
    assert ledger.accounts["system"] == pytest.approx(active * profile.active)
    assert ledger.requests == {}
    assert ledger.blames == []  # disk started spinning; no surge


def sample_accounts(dep, meter, step, horizon):
    """Test-local oracle: sample every account's wall watts each ``step``.

    Reads the same ownership stamps the ledger books, but holds each
    reading for a whole step up to ``horizon``, as a sampling meter would.
    """
    sim = dep.sim
    totals = {}

    def loop():
        while True:
            watts = {"overhead": float(meter.overhead_watts())}
            for disk in dep.disks.values():
                state, _, owner = disk.open_interval()
                draw = disk.power_draw(disk.default_power_profile()) / PSU_EFFICIENCY
                if state in (DiskPowerState.ACTIVE, DiskPowerState.SPINNING_UP):
                    account = tenant_account(owner[0] if owner else None)
                else:
                    account = "idle"
                watts[account] = watts.get(account, 0.0) + draw
            assert sum(watts.values()) == pytest.approx(
                float(meter.instantaneous_watts()), rel=1e-12
            )
            span = min(step, horizon - sim.now)
            for account, value in watts.items():
                totals[account] = totals.get(account, 0.0) + value * span
            yield sim.timeout(step)

    sim.process(loop())
    return totals


def test_fine_sampling_converges_on_the_books():
    """A sampler of the same draw converges on the ledger as its step
    shrinks: the books are the limit, not an approximation of it."""
    dep, gateway, objects, ledger, meter = build_metered()
    horizon = dep.sim.now + 60.0
    oracles = {
        step: sample_accounts(dep, meter, step, horizon) for step in (1.0, 0.1, 0.01)
    }

    def burst(space, count):
        for i in range(count):
            gateway.submit_op(ReadObject("t0", ObjectRef(space, i * MiB, 1 * MiB)))

    for at, target in ((0.3, 0), (11.7, 5), (23.1, 9), (37.9, 0)):
        dep.sim.defer(at, lambda t=target: burst(objects[t].space_id, 3))
    dep.sim.run(until=horizon)
    ConservationAuditor(meter, ledger).assert_conserved(horizon)
    books = ledger.account_joules()

    def worst(step):
        return max(
            abs(oracles[step].get(name, 0.0) - joules) / joules
            for name, joules in books.items()
            if joules > 100.0
        )

    assert worst(0.01) < 1e-3
    assert worst(0.01) < worst(0.1) < worst(1.0)


def test_ledger_disk_books_equal_gateway_energy():
    """One source for disk energy: the ledger's non-overhead books, in
    DC joules, equal the gateway's residency-based disk energy."""
    summary = gateway_slo.run_point("batch", seed=11, duration=180.0, energy=True)
    accounts = summary["energy"]["accounts"]
    disk_wall = sum(j for name, j in accounts.items() if name != "overhead")
    assert disk_wall * PSU_EFFICIENCY == pytest.approx(
        summary["energy_joules"], rel=1e-9
    )
