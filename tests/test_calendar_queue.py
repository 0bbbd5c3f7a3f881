"""Property tests: the calendar queue is order-equivalent to the heap.

Two layers of evidence, both across many seeds:

* **Queue level** — random push/pop workloads (clustered timestamps,
  priority ties, bursts, pathological widths) fed to a
  :class:`~repro.sim.CalendarQueue` and the :class:`~repro.sim
  .HeapScheduler` oracle must pop identical ``(time, priority, seq)``
  sequences.
* **Kernel level** — full simulations (timer storms, same-timestamp
  priority ties, process interrupts/cancellations, event failure) run
  once per scheduler must produce byte-identical
  :class:`~repro.sim.EventDigest` replay fingerprints and identical
  observable traces.
"""

import pytest

from repro.sim import (
    CalendarQueue,
    EventDigest,
    HeapScheduler,
    Interrupt,
    RngRegistry,
    Simulator,
)

SEEDS = list(range(30))


# -- queue-level equivalence ----------------------------------------------


def _random_workload(seed, operations=2000):
    """Interleaved pushes and pops with clustered times and tied triples."""
    rand = RngRegistry(seed).stream("calendar.property")
    heap, cal = HeapScheduler(), CalendarQueue()
    seq = 0
    popped = []
    now = 0.0
    for _ in range(operations):
        action = rand.random()
        if action < 0.6 or not len(heap):
            # Mix near-future clusters, exact ties and far-flung times.
            shape = rand.random()
            if shape < 0.5:
                time = now + rand.random() * 2.0
            elif shape < 0.8:
                time = now + float(rand.randrange(4))  # deliberate ties
            else:
                time = now + rand.random() * 1000.0
            priority = rand.randrange(3)
            burst = 1 + rand.randrange(3)
            for _ in range(burst):
                item = (time, priority, seq, int)
                heap.push(item)
                cal.push(item)
                seq += 1
        else:
            a, b = heap.pop(), cal.pop()
            assert a == b, f"seed {seed}: heap {a[:3]} != calendar {b[:3]}"
            now = a[0]
            popped.append(a[:3])
    while len(heap):
        a, b = heap.pop(), cal.pop()
        assert a == b
        popped.append(a[:3])
    assert len(cal) == 0
    with pytest.raises(IndexError):
        cal.pop()
    return popped


@pytest.mark.parametrize("seed", SEEDS)
def test_random_workloads_pop_identically(seed):
    popped = _random_workload(seed)
    # Time never runs backwards.  (The full triple sequence need not be
    # globally sorted: a same-time, smaller-priority item pushed *after*
    # a pop at that time legitimately pops later.)
    times = [time for time, _, _ in popped]
    assert times == sorted(times)
    assert len(popped) > 500


@pytest.mark.parametrize("width", [1e-9, 1e-3, 1.0, 1e6])
def test_pathological_initial_widths_stay_equivalent(width):
    rand = RngRegistry(99).stream("calendar.width")
    heap, cal = HeapScheduler(), CalendarQueue(initial_width=width)
    for seq in range(3000):
        item = (rand.random() * 100.0, rand.randrange(3), seq, int)
        heap.push(item)
        cal.push(item)
    out = []
    while len(heap):
        a, b = heap.pop(), cal.pop()
        assert a == b
        out.append(a)
    assert out == sorted(out)


def test_peek_time_matches_heap_and_does_not_reorder():
    rand = RngRegistry(5).stream("calendar.peek")
    heap, cal = HeapScheduler(), CalendarQueue()
    for seq in range(500):
        item = (rand.random() * 10.0, rand.randrange(3), seq, int)
        heap.push(item)
        cal.push(item)
    while len(heap):
        assert cal.peek_time() == heap.peek_time()
        assert heap.pop() == cal.pop()
    assert cal.peek_time() == float("inf")


def test_in_window_push_lands_in_order():
    """A push below the open horizon must insort into the live window."""
    cal = CalendarQueue(initial_width=10.0)
    for seq, time in enumerate([0.0, 5.0, 9.0]):
        cal.push((time, 1, seq, int))
    assert cal.pop()[0] == 0.0  # opens a window covering [0, 10)
    cal.push((1.0, 1, 99, int))  # lands inside the open window
    cal.push((9.5, 1, 100, int))
    assert [cal.pop()[0] for _ in range(4)] == [1.0, 5.0, 9.0, 9.5]


def test_constructor_validation():
    with pytest.raises(ValueError):
        CalendarQueue(initial_width=0.0)
    with pytest.raises(ValueError):
        CalendarQueue(widen_below=10, halve_above=10)


# -- kernel-level equivalence ---------------------------------------------


def _timer_storm(sim, rand, events):
    """Self-rescheduling defer timers with ties and mixed priorities."""
    fired = []
    remaining = [events]

    def make_timer(name):
        def tick():
            fired.append((name, sim.now))
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.defer(rand.random() * 2.0, tick, rand.randrange(3))

        return tick

    for i in range(16):
        sim.defer(rand.random(), make_timer(i), rand.randrange(3))
    return fired


def _interrupt_scenario(sim, rand, log):
    """Processes that wait, get interrupted, and cancel pending work."""

    def sleeper(name):
        try:
            yield sim.timeout(1000.0)
            log.append((name, "slept", sim.now))
        except Interrupt as interrupt:
            log.append((name, f"interrupted:{interrupt.cause}", sim.now))
            yield sim.timeout(rand.random())
            log.append((name, "recovered", sim.now))

    sleepers = [sim.process(sleeper(f"p{i}")) for i in range(8)]

    def killer():
        for i, proc in enumerate(sleepers):
            yield sim.timeout(rand.random() * 3.0)
            if i % 3 != 2:  # leave some sleeping: they cancel via drain
                proc.interrupt(cause=i)
                log.append(("killer", f"hit:{i}", sim.now))

    sim.process(killer())

    def failer():
        ev = sim.event()
        sim.defer(2.0, lambda: ev.fail(RuntimeError("boom")))
        try:
            yield ev
        except RuntimeError:
            log.append(("failer", "caught", sim.now))

    sim.process(failer())


def _run_scenario(scheduler, seed):
    """One mixed workload under ``scheduler``: digest + observable log."""
    with EventDigest().under(scheduler) as digest:
        sim = Simulator()
    rand = RngRegistry(seed).stream("calendar.kernel")
    fired = _timer_storm(sim, rand, events=400)
    log = []
    _interrupt_scenario(sim, rand, log)
    sim.run(until=500.0)
    return digest.hexdigest(), digest.events, fired, log


@pytest.mark.parametrize("seed", SEEDS)
def test_digest_identical_across_schedulers(seed):
    heap = _run_scenario("heap", seed)
    calendar = _run_scenario("calendar", seed)
    assert heap == calendar
    assert heap[1] > 400  # the scenario actually exercised the kernel


def test_same_timestamp_priority_ties_pop_in_priority_then_seq_order():
    for scheduler in ("heap", "calendar"):
        sim = Simulator(scheduler=scheduler)
        order = []
        # Reverse-priority insertion at one timestamp: pops must sort by
        # (priority, seq), not insertion order.
        for name, priority in [("low", 2), ("urgent", 0), ("normal", 1),
                               ("urgent2", 0), ("low2", 2)]:
            sim.defer(1.0, lambda n=name: order.append(n), priority)
        sim.run()
        assert order == ["urgent", "urgent2", "normal", "low", "low2"], scheduler


def test_cancelled_timeouts_keep_schedulers_aligned():
    """Interrupt-heavy runs (abandoned timeouts stay queued) still match."""
    results = []
    for scheduler in ("heap", "calendar"):
        with EventDigest().under(scheduler) as digest:
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
        results.append((digest.hexdigest(), log))
    assert results[0] == results[1]
    assert ("w0", "cancelled") in results[0][1]
    assert ("w1", "done") in results[0][1]
