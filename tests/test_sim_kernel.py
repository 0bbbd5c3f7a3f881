"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.obs import MetricsRegistry
from repro.sim import (
    EventDigest,
    Interrupt,
    Resource,
    RngRegistry,
    SimulationError,
    Simulator,
    Store,
    step_in_place,
)


class TestEventBasics:
    def test_clock_starts_at_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_clock_custom_start(self):
        sim = Simulator(start_time=42.5)
        assert sim.now == 42.5

    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(3.5)
        sim.run()
        assert sim.now == 3.5

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_run_until_stops_early(self):
        sim = Simulator()
        sim.timeout(100.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_advances_past_empty_queue(self):
        sim = Simulator()
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_event_value_before_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_unhandled_failed_event_raises_at_processing(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            sim.run()

    def test_defused_failed_event_is_silent(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        sim.run()

    def test_defer_runs_callback(self):
        sim = Simulator()
        fired = []
        sim.defer(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_defer_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.defer_at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_defer_at_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.defer_at(5.0, lambda: None)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.defer(3.0, lambda: order.append("c"))
        sim.defer(1.0, lambda: order.append("a"))
        sim.defer(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.defer(1.0, lambda lab=label: order.append(lab))
        sim.run()
        assert order == list("abcde")

    def test_same_timestamp_priority_ties_pop_in_priority_then_seq_order(self):
        sim = Simulator()
        order = []
        # Reverse-priority insertion at one timestamp: pops must sort by
        # (priority, seq), not insertion order.
        for name, priority in [("low", 2), ("urgent", 0), ("normal", 1),
                               ("urgent2", 0), ("low2", 2)]:
            sim.defer(1.0, lambda n=name: order.append(n), priority)
        sim.run()
        assert order == ["urgent", "urgent2", "normal", "low", "low2"]

    def test_max_events_guard(self):
        sim = Simulator()

        def rescheduler():
            sim.defer(0.0, rescheduler)

        rescheduler()
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)
        assert sim.events == 100


class TestEventCount:
    def test_events_counts_what_every_entry_point_runs_as_the_digest_does(self):
        registry = MetricsRegistry()
        with EventDigest().under() as digest:
            sim = Simulator(metrics=registry)
            other = Simulator(metrics=registry)
        for t in range(1, 9):
            sim.defer(float(t), lambda: None)
        sim.step()
        assert sim.events == digest.events == 1
        sim.run(until=3.5)
        assert sim.events == digest.events == 3
        sim.run_until_event(sim.timeout(5.0))  # t=4..8 and the timeout
        assert sim.events == digest.events == 9

        def boom():
            raise ValueError("boom")

        sim.defer(1.0, boom)
        sim.defer(2.0, lambda: None)
        with pytest.raises(ValueError):
            sim.run()
        assert sim.events == digest.events == 10  # a raising event counts
        sim.run()
        assert sim.events == digest.events == 11
        other.defer(1.0, lambda: None)
        other.run()
        assert other.events == 1
        assert digest.events == 12
        assert registry.dump()["counters"]["sim.events"] == 12.0


class TestProcesses:
    def test_process_waits_on_timeout(self):
        sim = Simulator()
        log = []

        def proc(sim):
            log.append(sim.now)
            yield sim.timeout(2.0)
            log.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert log == [0.0, 2.0]

    def test_process_return_value(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(1.0)
            return 99

        p = sim.process(child(sim))
        assert sim.run_until_event(p) == 99

    def test_process_waits_on_process(self):
        sim = Simulator()
        results = []

        def child(sim):
            yield sim.timeout(3.0)
            return "done"

        def parent(sim):
            value = yield sim.process(child(sim))
            results.append((sim.now, value))

        sim.process(parent(sim))
        sim.run()
        assert results == [(3.0, "done")]

    def test_yield_non_event_fails_loudly(self):
        sim = Simulator()

        def bad(sim):
            yield 42

        p = sim.process(bad(sim))
        p.defuse()
        sim.run()
        assert not p.ok
        assert isinstance(p.value, SimulationError)

    def test_process_exception_propagates_to_waiter(self):
        sim = Simulator()
        caught = []

        def failing(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("inner")

        def waiter(sim):
            try:
                yield sim.process(failing(sim))
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter(sim))
        sim.run()
        assert caught == ["inner"]

    def test_interrupt_wakes_sleeping_process(self):
        sim = Simulator()
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                log.append((sim.now, intr.cause))

        p = sim.process(sleeper(sim))
        sim.defer(5.0, lambda: p.interrupt("wake up"))
        sim.run()
        assert log == [(5.0, "wake up")]

    def test_interrupted_waits_leave_their_timeouts_harmless(self):
        """An interrupted wait's timeout stays queued and wakes no one."""
        sim = Simulator()
        log = []

        def waiter(name):
            try:
                yield sim.timeout(50.0)
                log.append((name, "done"))
            except Interrupt:
                log.append((name, "cancelled"))

        procs = [sim.process(waiter(f"w{i}")) for i in range(6)]

        def canceller():
            yield sim.timeout(10.0)
            for proc in procs[::2]:
                proc.interrupt()

        sim.process(canceller())
        sim.run()
        assert log == [("w0", "cancelled"), ("w2", "cancelled"), ("w4", "cancelled"),
                       ("w1", "done"), ("w3", "done"), ("w5", "done")]
        assert sim.now == 50.0

    def test_interrupt_finished_process_rejected(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(1.0)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_is_alive(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(1.0)

        p = sim.process(quick(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_yield_already_processed_event(self):
        sim = Simulator()
        log = []

        def proc(sim):
            ev = sim.timeout(0.0, value="x")
            yield sim.timeout(1.0)
            value = yield ev  # fired long ago
            log.append(value)

        sim.process(proc(sim))
        sim.run()
        assert log == ["x"]

    def test_all_of_collects_values(self):
        sim = Simulator()
        results = []

        def proc(sim):
            events = [sim.timeout(i, value=i) for i in (3, 1, 2)]
            values = yield sim.all_of(events)
            results.append((sim.now, values))

        sim.process(proc(sim))
        sim.run()
        assert results == [(3.0, [3, 1, 2])]

    def test_all_of_empty(self):
        sim = Simulator()
        gate = sim.all_of([])
        assert sim.run_until_event(gate) == []

    def test_any_of_returns_first(self):
        sim = Simulator()
        results = []

        def proc(sim):
            value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
            results.append((sim.now, value))

        sim.process(proc(sim))
        sim.run()
        assert results == [(1.0, "fast")]


class TestStepInPlace:
    """``step_in_place`` steps a generator as a process does, as no event."""

    def test_first_step_runs_inside_the_callers_event(self):
        sim = Simulator()
        log = []

        def gen():
            log.append(("first step", sim.now))
            yield sim.timeout(1.0)

        def caller():
            before = sim.events
            log.append(("running", step_in_place(sim, gen(), lambda *outcome: None)))
            log.append(("events moved", sim.events - before))

        sim.defer(2.0, caller)
        sim.step()
        assert log == [("first step", 2.0), ("running", True), ("events moved", 0)]
        assert sim.events == 1
        sim.run()
        assert sim.events == 2  # the caller's event and the timeout: no start, no finish

    def test_done_runs_once_with_the_return_value(self):
        sim = Simulator()
        ends = []

        def gen():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return "value"

        assert step_in_place(sim, gen(), lambda *outcome: ends.append((sim.now, outcome)))
        sim.run()
        assert ends == [(3.0, ("value", None))]

    def test_a_generator_that_returns_at_once_ends_before_the_call_returns(self):
        sim = Simulator()
        ends = []

        def gen():
            return "now"
            yield  # pragma: no cover - makes this a generator

        assert not step_in_place(sim, gen(), lambda *outcome: ends.append(outcome))
        assert ends == [("now", None)]
        sim.run()
        assert sim.events == 0

    def test_done_runs_once_with_a_raised_exception(self):
        sim = Simulator()
        ends = []
        failed = sim.event()
        failed.fail(KeyError("seen"), delay=1.0)

        def gen():
            try:
                yield failed  # thrown in, and defused: the kernel stays quiet
            except KeyError:
                pass
            yield sim.timeout(1.0)
            raise ValueError("boom")

        step_in_place(sim, gen(), lambda *outcome: ends.append((sim.now, outcome)))
        sim.run()
        assert len(ends) == 1
        now, (value, error) = ends[0]
        assert now == 2.0 and value is None
        assert isinstance(error, ValueError) and str(error) == "boom"

    def test_a_non_event_yield_ends_with_simulation_error(self):
        sim = Simulator()
        ends = []

        def bad():
            yield 42

        generator = bad()
        assert not step_in_place(sim, generator, lambda *outcome: ends.append(outcome))
        [(value, error)] = ends
        assert value is None and isinstance(error, SimulationError)
        assert str(error) == "process 'bad' yielded 42; processes must yield events"
        assert generator.gi_frame is None  # torn down
        sim.run()
        assert sim.events == 0

    def test_an_already_processed_yield_resumes_through_one_urgent_relay(self):
        sim = Simulator()
        done_ok = sim.timeout(0.0, value="x")
        done_bad = sim.event()
        done_bad.fail(KeyError("late"))
        done_bad.defuse()
        sim.run()
        log = []

        def gen():
            log.append(("got", (yield done_ok), sim.now))
            try:
                yield done_bad
            except KeyError:
                log.append(("caught", sim.now))

        def caller():
            # Queued first at the same instant, but NORMAL: each relay is
            # URGENT, so it still runs after both resumptions.
            sim.defer(0.0, lambda: log.append("normal"))
            step_in_place(sim, gen(), lambda *outcome: log.append(("done", outcome)))

        sim.defer(1.0, caller)
        before = sim.events
        sim.run()
        assert log == [("got", "x", 1.0), ("caught", 1.0), ("done", (None, None)), "normal"]
        assert sim.events - before == 4  # the caller, two relays, the NORMAL callback

    def test_same_steps_as_a_process_with_two_fewer_pops(self):
        """The same generator under ``sim.process`` and ``step_in_place``
        sees the same ``(now, value)`` sequence; only the process's start
        and finish events are gone."""

        def run(start):
            sim = Simulator()
            seen = []
            early = sim.timeout(0.5, value="early")
            late = sim.event()
            late.fail(ValueError("late"), delay=3.0)

            def gen():
                seen.append((sim.now, "first"))
                value = yield sim.timeout(1.0, value="a")
                seen.append((sim.now, value))
                value = yield early  # already processed: a relay
                seen.append((sim.now, value))
                try:
                    yield late
                except ValueError as exc:
                    seen.append((sim.now, str(exc)))
                return "end"

            sim.defer(0.25, lambda: start(sim, gen(), seen))
            sim.run()
            return seen, sim.events

        def as_process(sim, generator, seen):
            process = sim.process(generator)
            process.callbacks.append(lambda ev: seen.append((sim.now, ev.value)))

        def in_place(sim, generator, seen):
            step_in_place(sim, generator, lambda value, error: seen.append((sim.now, value)))

        process_seen, process_events = run(as_process)
        in_place_seen, in_place_events = run(in_place)
        assert in_place_seen == process_seen == [
            (0.25, "first"), (1.25, "a"), (1.25, "early"), (3.0, "late"), (3.0, "end"),
        ]
        assert in_place_events == process_events - 2


class TestFireInPlace:
    """``fire_in_place`` triggers an event and runs its callbacks with no pop."""

    def test_callbacks_run_before_it_returns_and_the_event_reads_processed(self):
        sim = Simulator()
        event = sim.event()
        log = []
        event.callbacks.append(lambda ev: log.append(("callback", ev.value, ev.processed)))

        def fire():
            event.fire_in_place("v")
            log.append(("returned", event.triggered, event.processed, event.ok, event.value))

        sim.defer(1.0, fire)
        sim.run()
        assert log == [("callback", "v", True), ("returned", True, True, True, "v")]
        assert sim.events == 1  # the deferred callback: no push, no pop

    def test_a_second_trigger_raises(self):
        sim = Simulator()
        fired = sim.event()
        fired.fire_in_place()
        with pytest.raises(SimulationError, match="already triggered"):
            fired.fire_in_place()
        with pytest.raises(SimulationError, match="already triggered"):
            fired.succeed()
        scheduled = sim.event()
        scheduled.succeed()
        with pytest.raises(SimulationError, match="already triggered"):
            scheduled.fire_in_place()

    def test_a_failure_reaches_a_waiting_generator_inside_the_firing_event(self):
        sim = Simulator()
        event = sim.event()
        log = []

        def waiter():
            try:
                yield event
            except KeyError as exc:
                log.append(("caught", exc.args[0], sim.now))

        def fire():
            event.fire_in_place(error=KeyError("lost"))
            log.append("returned")

        step_in_place(sim, waiter(), lambda *outcome: log.append(("done", outcome)))
        sim.defer(1.0, fire)
        sim.run()
        assert log == [("caught", "lost", 1.0), ("done", (None, None)), "returned"]
        assert not event.ok and sim.events == 1

    def test_a_failure_nobody_defused_raises_inside_the_running_event(self):
        sim = Simulator()
        event = sim.event()
        sim.defer(1.0, lambda: event.fire_in_place(error=KeyError("unheard")))
        with pytest.raises(KeyError, match="unheard"):
            sim.run()
        assert sim.now == 1.0 and event.processed

    def test_a_waiter_after_the_fire_resumes_through_the_urgent_relay(self):
        sim = Simulator()
        event = sim.event()
        log = []

        def waiter():
            value = yield event
            log.append((value, sim.now))

        def caller():
            # Queued first at the same instant, but NORMAL: the relay is
            # URGENT, so the waiter resumes before it.
            sim.defer(0.0, lambda: log.append("normal"))
            step_in_place(sim, waiter(), lambda *outcome: log.append("done"))

        event.fire_in_place("early")
        sim.defer(1.0, caller)
        sim.run()
        assert log == [("early", 1.0), "done", "normal"]
        assert sim.events == 3  # the caller, the relay, the NORMAL callback

    def test_same_resumption_as_succeed_with_one_pop_fewer(self):
        """Fired as its event's last act, with nothing else due at the
        instant, the waiter sees what ``succeed`` would have shown it."""

        def run(fire):
            sim = Simulator()
            seen = []
            event = sim.event()

            def waiter():
                value = yield event
                seen.append((sim.now, value))
                yield sim.timeout(1.0)
                seen.append((sim.now, "after"))

            sim.process(waiter())
            sim.defer(2.0, lambda: fire(event))
            sim.run()
            return seen, sim.events

        scheduled_seen, scheduled_events = run(lambda event: event.succeed("v"))
        in_place_seen, in_place_events = run(lambda event: event.fire_in_place("v"))
        assert in_place_seen == scheduled_seen == [(2.0, "v"), (3.0, "after")]
        assert in_place_events == scheduled_events - 1


class TestResource:
    def test_fifo_grant_order(self):
        sim = Simulator()
        res = Resource(sim)
        grants = []

        def worker(sim, name, start):
            yield sim.timeout(start)
            yield res.request()
            grants.append(name)
            yield sim.timeout(1.0)
            res.release()

        sim.process(worker(sim, "first", 0.0))
        sim.process(worker(sim, "second", 0.1))
        sim.process(worker(sim, "third", 0.2))
        sim.run()
        assert grants == ["first", "second", "third"]

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release()

    def test_take_holds_a_free_slot_with_no_event_and_leaves_a_held_one_alone(self):
        sim = Simulator()
        res = Resource(sim)
        assert res.take() and res.users == 1
        assert not res.take()
        assert res.users == 1 and res.queue_length == 0
        waiter = res.request()  # a held slot queues through request()
        res.release()
        assert res.users == 1  # handed to the waiter
        sim.run()
        assert waiter.processed and sim.events == 1
        res.release()
        assert res.users == 0


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("item")
        got = store.get()
        assert sim.run_until_event(got) == "item"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        results = []

        def consumer(sim):
            item = yield store.get()
            results.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(4.0)
            yield store.put("late")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert results == [(4.0, "late")]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.put(i)
        values = [sim.run_until_event(store.get()) for _ in range(5)]
        assert values == [0, 1, 2, 3, 4]


class TestRng:
    def test_streams_are_deterministic(self):
        a = RngRegistry(7).stream("disk").random()
        b = RngRegistry(7).stream("disk").random()
        assert a == b

    def test_streams_are_independent(self):
        reg = RngRegistry(7)
        first = reg.stream("disk").random()
        # Creating another stream must not perturb the first.
        reg2 = RngRegistry(7)
        reg2.stream("network")
        assert reg2.stream("disk").random() == first

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()

    def test_fork_is_deterministic_and_distinct(self):
        reg = RngRegistry(7)
        f1 = reg.fork("trial")
        f2 = RngRegistry(7).fork("trial")
        assert f1.master_seed == f2.master_seed
        assert f1.master_seed != reg.master_seed
