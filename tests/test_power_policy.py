"""Unit tests for the §IV-F spin-down policies (repro.power.policy).

The thrash-detection path of :class:`AdaptiveTimeoutPolicy` is covered
directly — wake-up counting against the window, doubling past the
limit, the event-list reset after each doubling, compounding and the
``max_timeout`` cap — plus ``run_policy`` integration against a real
:class:`SimulatedDisk` thrashing on purpose.
"""

import pytest

from repro.disk.device import IoRequest, SimulatedDisk
from repro.disk.states import DiskPowerState
from repro.power.policy import AdaptiveTimeoutPolicy, FixedTimeoutPolicy, run_policy
from repro.sim import Simulator
from repro.units import MiB


class TestFixedTimeoutPolicy:
    def test_constant_timeout(self):
        policy = FixedTimeoutPolicy(idle_timeout=120.0)
        assert policy.timeout_for("d0") == 120.0
        assert policy.timeout_for("anything") == 120.0

    def test_ignores_wakeups(self):
        policy = FixedTimeoutPolicy(idle_timeout=120.0)
        for t in range(10):
            policy.on_spin_up("d0", float(t))
        assert policy.timeout_for("d0") == 120.0


class TestAdaptiveThrashDetection:
    def make(self, **kwargs):
        defaults = dict(idle_timeout=300.0, thrash_limit=3, thrash_window=3600.0)
        defaults.update(kwargs)
        return AdaptiveTimeoutPolicy(**defaults)

    def test_default_timeout_before_any_wakeup(self):
        assert self.make().timeout_for("d0") == 300.0

    def test_wakeups_at_the_limit_do_not_double(self):
        policy = self.make()
        for t in (0.0, 1.0, 2.0):  # exactly thrash_limit wake-ups
            policy.on_spin_up("d0", t)
        assert policy.timeout_for("d0") == 300.0

    def test_wakeup_beyond_limit_doubles(self):
        policy = self.make()
        for t in (0.0, 1.0, 2.0, 3.0):
            policy.on_spin_up("d0", t)
        assert policy.timeout_for("d0") == 600.0

    def test_events_cleared_after_doubling(self):
        """Each doubling resets the count: the next one needs a fresh
        limit-exceeding burst, not just one more wake-up."""
        policy = self.make()
        for t in (0.0, 1.0, 2.0, 3.0):
            policy.on_spin_up("d0", t)
        assert policy.timeout_for("d0") == 600.0
        # Three more wake-ups only reach the limit again — no doubling.
        for t in (4.0, 5.0, 6.0):
            policy.on_spin_up("d0", t)
        assert policy.timeout_for("d0") == 600.0
        # The fourth post-reset wake-up crosses it.
        policy.on_spin_up("d0", 7.0)
        assert policy.timeout_for("d0") == 1200.0

    def test_doubling_caps_at_max_timeout(self):
        policy = self.make(max_timeout=1000.0)
        for t in range(8):  # two limit-exceeding bursts
            policy.on_spin_up("d0", float(t))
        assert policy.timeout_for("d0") == 1000.0  # min(1200, cap)
        for t in range(8, 12):
            policy.on_spin_up("d0", float(t))
        assert policy.timeout_for("d0") == 1000.0  # stays pinned

    def test_old_wakeups_pruned_from_window(self):
        policy = self.make(thrash_window=100.0)
        for t in (0.0, 1.0, 2.0):
            policy.on_spin_up("d0", t)
        # Far outside the window: the burst above no longer counts.
        policy.on_spin_up("d0", 500.0)
        assert policy.timeout_for("d0") == 300.0
        # A fresh in-window burst still trips the detector.
        for t in (501.0, 502.0, 503.0):
            policy.on_spin_up("d0", t)
        assert policy.timeout_for("d0") == 600.0

    def test_disks_are_isolated(self):
        policy = self.make()
        for t in (0.0, 1.0, 2.0, 3.0):
            policy.on_spin_up("thrasher", t)
        assert policy.timeout_for("thrasher") == 600.0
        assert policy.timeout_for("quiet") == 300.0


class TestRunPolicyIntegration:
    def test_fixed_policy_spins_down_idle_disk(self):
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0")
        run_policy(sim, {"d0": disk}, FixedTimeoutPolicy(idle_timeout=2.0),
                   check_interval=0.5)
        sim.run(until=5.0)
        assert disk.power_state is DiskPowerState.SPUN_DOWN

    def test_thrashing_disk_gets_its_timeout_doubled(self):
        """An I/O-every-12s workload against a 1s idle timeout forces a
        spin cycle per request; the adaptive policy must react by
        raising that disk's timeout."""
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0")
        policy = AdaptiveTimeoutPolicy(
            idle_timeout=1.0, thrash_limit=1, thrash_window=1000.0
        )
        run_policy(sim, {"d0": disk}, policy, check_interval=0.5)

        def thrash():
            for i in range(5):
                yield disk.submit(IoRequest(offset=0, size=4096, is_read=True))
                yield sim.timeout(12.0)

        sim.run_until_event(sim.process(thrash()))
        assert disk.states.spin_up_count >= 2
        assert policy.timeout_for("d0") > policy.idle_timeout

    def test_raised_timeout_stops_the_thrash(self):
        """Once doubled past the gap between requests, the disk stays
        spinning and spin-ups stop accumulating."""
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0")
        policy = AdaptiveTimeoutPolicy(
            idle_timeout=1.0, thrash_limit=1, thrash_window=1000.0,
            max_timeout=64.0,
        )
        run_policy(sim, {"d0": disk}, policy, check_interval=0.5)

        def thrash():
            for i in range(12):
                yield disk.submit(IoRequest(offset=0, size=4096, is_read=True))
                yield sim.timeout(12.0)

        sim.run_until_event(sim.process(thrash()))
        # Doubling stops once the timeout clears the ~12s request gap:
        # the disk no longer spins down between requests, so no further
        # wake-ups feed the detector and the timeout settles.
        assert policy.timeout_for("d0") >= 16.0
        # Far fewer spin cycles than requests: the tail of the workload
        # ran against a disk the policy had learned to keep on.
        assert 1 <= disk.states.spin_up_count < 12

    def test_idle_clock_starts_when_the_disk_turns_idle(self):
        """A disk spun up without I/O is idle from the end of its
        spin-up, not from its last I/O: spun down at 12 s, woken at
        15 s, IDLE at 23 s, it spins down at the first 2 s check at
        least 12 s later (36 s), not at the first check after 23 s."""
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0")
        changes = []
        disk.add_state_listener(
            lambda disk_id, state, span, owner: changes.append(
                (sim.now, disk.power_state)
            )
        )
        run_policy(sim, {"d0": disk}, FixedTimeoutPolicy(idle_timeout=12.0),
                   check_interval=2.0)
        sim.run(until=15.0)
        disk.spin_up()
        sim.run(until=40.0)
        assert changes == [
            (12.0, DiskPowerState.SPUN_DOWN),
            (15.0, DiskPowerState.SPINNING_UP),
            (23.0, DiskPowerState.IDLE),
            (36.0, DiskPowerState.SPUN_DOWN),
        ]

    def test_run_policy_rejects_nothing_silently(self):
        """A disk that never idles is never spun down."""
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0")
        run_policy(sim, {"d0": disk}, FixedTimeoutPolicy(idle_timeout=5.0),
                   check_interval=1.0)

        def busy():
            for i in range(20):
                yield disk.submit(IoRequest(offset=0, size=MiB, is_read=True))
                yield sim.timeout(0.5)

        sim.run_until_event(sim.process(busy()))
        assert disk.states.spin_up_count == 0
        assert disk.power_state is not DiskPowerState.SPUN_DOWN


class CountingPolicy:
    """Probe policy: counts timeout queries and records wake-ups."""

    def __init__(self, idle_timeout=1e9):
        self.idle_timeout = idle_timeout
        self.wakeups = []
        self.timeout_queries = 0

    def timeout_for(self, disk_id):
        self.timeout_queries += 1
        return self.idle_timeout

    def on_spin_up(self, disk_id, now):
        self.wakeups.append((disk_id, now))


class TestPolicyHandle:
    def submit_one(self, sim, disk):
        def io():
            yield disk.submit(IoRequest(offset=0, size=4096, is_read=True))

        sim.run_until_event(sim.process(io()))

    def test_wakeups_carry_exact_sim_time(self):
        """The listener fires at the spin-up transition itself, not at
        the next check boundary (the old polling quantised to it)."""
        sim = Simulator()
        disk = SimulatedDisk(sim, "d0")
        policy = CountingPolicy()
        run_policy(sim, {"d0": disk}, policy, check_interval=10.0)
        disk.spin_down()
        sim.run(until=3.25)
        self.submit_one(sim, disk)
        assert policy.wakeups == [("d0", 3.25)]


def test_policy_objects_are_plain_data():
    """Policies must be constructible without a simulator (ablatable)."""
    assert FixedTimeoutPolicy().idle_timeout == 300.0
    adaptive = AdaptiveTimeoutPolicy()
    assert adaptive.thrash_limit == 3
    assert adaptive.max_timeout == pytest.approx(4 * 3600.0)
