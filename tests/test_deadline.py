"""Tests for the armed-deadline helper (repro.sim.deadline)."""

import pytest

from repro.sim import Deadline, EventDigest, Grid, SimulationError, Simulator


def counted_sim():
    """A simulator whose pops an :class:`EventDigest` counts."""
    with EventDigest().under() as digest:
        return Simulator(), digest


class TestDeadline:
    def test_fires_once_at_the_armed_instant(self):
        sim = Simulator()
        fired = []
        deadline = Deadline(sim, lambda: fired.append(sim.now))
        deadline.arm(2.5)
        assert deadline.armed and deadline.at == 2.5
        sim.run()
        assert fired == [2.5]
        assert not deadline.armed and deadline.at == float("inf")

    def test_later_rearm_adds_no_pop(self):
        sim, digest = counted_sim()
        fired = []
        deadline = Deadline(sim, lambda: fired.append(sim.now))
        deadline.arm(1.0)
        deadline.arm(3.0)
        deadline.arm(1.0)
        sim.run()
        assert fired == [1.0]
        assert digest.events == 1

    def test_earlier_rearm_adds_one_pop_and_the_superseded_one_does_nothing(self):
        sim, digest = counted_sim()
        fired = []
        deadline = Deadline(sim, lambda: fired.append(sim.now))
        deadline.arm(3.0)
        deadline.arm(1.0)
        sim.run()
        assert fired == [1.0]
        assert digest.events == 2  # the live pop and the superseded one
        assert sim.now == 3.0

    def test_rearm_at_a_superseded_instant_acts_once(self):
        sim = Simulator()
        fired = []
        deadline = Deadline(sim, lambda: fired.append(sim.now))
        deadline.arm(3.0)
        deadline.arm(1.0)
        sim.run(until=2.0)
        deadline.arm(3.0)  # a fresh pop at the stale pop's instant
        sim.run()
        assert fired == [1.0, 3.0]

    def test_disarm(self):
        sim = Simulator()
        fired = []
        deadline = Deadline(sim, lambda: fired.append(sim.now))
        deadline.arm(1.0)
        deadline.disarm()
        sim.run()
        assert fired == []
        deadline.arm(2.0)
        sim.run()
        assert fired == [2.0]

    def test_defer_at_lands_on_the_exact_float(self):
        sim = Simulator()
        seen = []
        sim.defer(0.1, lambda: sim.defer_at(0.30000000000000004, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [0.30000000000000004]
        with pytest.raises(SimulationError):
            sim.defer_at(0.1, lambda: None)


def reference_ticks(period, until, origin=0.0):
    """Instants at which a ``timeout(period)`` loop started at ``origin`` wakes."""
    sim = Simulator(start_time=origin)
    ticks = []

    def loop():
        while True:
            yield sim.timeout(period)
            ticks.append(sim.now)

    sim.process(loop())
    sim.run(until=until)
    return ticks


class TestGrid:
    @pytest.mark.parametrize("period, origin", [(0.05, 0.0), (0.25, 0.0), (0.5, 3.0001234)])
    def test_grid_deadline_fires_with_a_timeout_loop(self, period, origin):
        ticks = reference_ticks(period, origin + 40.0, origin)
        sim = Simulator(start_time=origin)
        grid = Grid(origin, period)
        fired = []
        targets = iter([0.5, 7.3, 7.31, 19.999, 33.0])

        def fire():
            fired.append(sim.now)
            rearm()

        deadline = Deadline(sim, fire)

        def rearm():
            target = next(targets, None)
            if target is not None:
                target += origin
                deadline.arm(grid.first_after(sim.now, lambda tick: tick >= target))

        rearm()
        sim.run()
        expected = []
        for target in (0.5, 7.3, 7.31, 19.999, 33.0):
            after = expected[-1] if expected else origin
            expected.append(next(t for t in ticks if t > after and t >= target + origin))
        assert fired == expected
        assert set(fired) <= set(ticks)

    def test_stop_and_resume_keep_the_grid(self):
        ticks = reference_ticks(0.5, 60.0, origin=0.123)
        sim = Simulator(start_time=0.123)
        fired = []
        state = {"alive": True, "grid": None}

        def tick():
            if not state["alive"]:
                state["grid"] = Grid(sim.now, 0.5)  # stop on this tick
                return
            fired.append(sim.now)
            sim.defer(0.5, tick)

        def crash():
            state["alive"] = False

        def recover():
            state["alive"] = True
            grid, state["grid"] = state["grid"], None
            sim.defer_at(grid.first_after(sim.now), tick)

        sim.defer(0.5, tick)
        sim.defer_at(10.07, crash)
        sim.defer_at(31.9, recover)
        sim.run(until=60.0)
        assert fired == [t for t in ticks if t < 10.07 or t > 31.9]


class TestSharedGrid:
    def test_owners_starting_together_share_a_grid(self):
        sim = Simulator()
        assert sim.grid(0.05) is sim.grid(0.05)
        assert sim.grid(0.05) is not sim.grid(0.25)
        sim.run(until=1.0)
        assert sim.grid(0.05) is not Simulator().grid(0.05)

    def test_due_together_fire_in_join_order(self):
        # Loops started in the order a, b, c wake in that order at a common
        # tick, whatever order their deadlines were armed in.
        sim = Simulator()
        grid = sim.grid(0.05)
        fired = []
        deadlines = {
            name: Deadline(sim, lambda name=name: fired.append((name, sim.now)), grid)
            for name in "abc"
        }
        tick = grid.first_after(sim.now, lambda t: t >= 0.3)
        for name in "cab":
            deadlines[name].arm(tick)
        deadlines["b"].arm(grid.first_after(sim.now, lambda t: t >= 0.1))  # b moves earlier
        sim.run()
        assert fired == [("b", 0.1), ("a", tick), ("c", tick)]
