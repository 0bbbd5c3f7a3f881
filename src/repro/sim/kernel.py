"""Discrete-event simulation kernel.

The kernel is a deterministic event loop: callbacks are ordered by
(time, priority, sequence number), so two simulations configured with the
same seeds replay identically.  Generator-based processes are layered on
top in :mod:`repro.sim.process`.

One event queue keeps that total order: :class:`HeapScheduler`, a
binary heap of scheduled tuples (see DESIGN.md §13).  A caller that
watches the event stream registers a queue class in :data:`SCHEDULERS`
(usually an :func:`observe_pops` subclass) and selects it with
:func:`use_scheduler` for the simulators a block builds, as
:class:`repro.sim.trace.EventDigest` does.

This module depends only on the standard library and the (equally
stdlib-only) :mod:`repro.obs` metrics layer; every other ``repro``
subsystem is built on it.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from functools import partial
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACER, RequestTracer

if TYPE_CHECKING:  # avoid an import cycle: analysis only uses stdlib
    from repro.analysis.races import Race, RaceDetector
    from repro.sim.process import Process

__all__ = [
    "CalendarQueue",
    "Event",
    "HeapScheduler",
    "Interrupt",
    "SCHEDULERS",
    "SimulationError",
    "Simulator",
    "Timeout",
    "observe_pops",
    "use_scheduler",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that has been interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event priorities: lower sorts first at equal timestamps.
URGENT = 0
NORMAL = 1


# Scheduling records are plain tuples ``(time, priority, seq, run)``
# where ``run`` is the zero-argument callable that processes the entry
# (an ``Event._process`` bound method, or a raw deferred callback from
# :meth:`Simulator.defer`): tuple comparison is implemented in C and the
# unique ``seq`` guarantees ordering is decided before the
# (incomparable) callable is reached.
_ScheduledItem = Tuple[float, int, int, Callable[[], None]]

_INFINITY = float("inf")


class HeapScheduler:
    """The kernel's event queue: one binary heap (``heapq``).

    ``push``/``pop`` are O(log n) and run in C.  No simulation in this
    program holds more than about 50 pending events; DESIGN.md §13 has
    the measurements that made the heap the one queue.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[_ScheduledItem] = []

    def push(self, item: _ScheduledItem) -> None:
        heappush(self._heap, item)

    def pop(self) -> _ScheduledItem:
        """Smallest item by ``(time, priority, seq)``.

        Raises :class:`IndexError` when empty (matching ``list.pop``);
        the simulator relies on that to detect a drained queue without
        a per-event emptiness check.
        """
        return heappop(self._heap)

    def peek_time(self) -> float:
        return self._heap[0][0] if self._heap else _INFINITY

    def pops_first(self, item: _ScheduledItem) -> bool:
        """Whether ``item`` sorts before every queued item."""
        return not self._heap or item < self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)


#: Queue name -> factory.  Simulators take their queue from the entry
#: :func:`use_scheduler` selects; a caller that watches the event stream
#: registers its own entry for the length of a block.
SCHEDULERS: Dict[str, Callable[[], HeapScheduler]] = {"heap": HeapScheduler}

_default_scheduler_name = "heap"

# bench/tracing.py subclasses the queue by this name; see the ROADMAP bench notes.
CalendarQueue = HeapScheduler


@contextmanager
def use_scheduler(name: str) -> Iterator[None]:
    """Make ``name`` the queue of simulators built inside the block.

    Lets a caller that never constructs simulators directly (an
    experiment run under ``repro check-determinism``) swap in a queue
    registered in :data:`SCHEDULERS` without threading a parameter
    through every layer.
    """
    global _default_scheduler_name
    if name not in SCHEDULERS:
        raise SimulationError(
            f"unknown scheduler {name!r}; available: {', '.join(sorted(SCHEDULERS))}"
        )
    previous, _default_scheduler_name = _default_scheduler_name, name
    try:
        yield
    finally:
        _default_scheduler_name = previous


def observe_pops(
    queue_class: Type[HeapScheduler],
    observer: Callable[[_ScheduledItem], _ScheduledItem],
) -> Type[HeapScheduler]:
    """A subclass of ``queue_class`` whose ``pop`` hands each item to
    ``observer`` and returns what the observer returns.

    The one way to watch the event stream: an observer sees each pop
    once, in order.  A callable that :meth:`Simulator.defer_now` runs in
    place is no pop, so it is not handed over (the race detector
    brackets it itself).  :class:`repro.sim.trace.EventDigest` folds
    the items it is handed; the race detector hands back the item with
    its callable bracketed.  Pushes are untouched, so the pop order is
    the queue's own.
    """
    base_pop = queue_class.pop

    def pop(queue: Any) -> _ScheduledItem:
        return observer(base_pop(queue))

    observed: Type[HeapScheduler] = type(
        f"Observed{queue_class.__name__}", (queue_class,), {"__slots__": (), "pop": pop}
    )
    return observed


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when it is scheduled
    to fire, and *processed* once its callbacks have run.  Processes wait
    on events by yielding them; arbitrary callbacks can also subscribe.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._processed and not self._triggered:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._push(self, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire with an exception.

        A failed event raises ``exception`` inside every process waiting
        on it.  If nothing waits, the simulator surfaces the exception at
        processing time unless :meth:`defuse` was called.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._push(self, delay, priority)
        return self

    def fire_in_place(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        """Trigger this event and run its callbacks now, inside the running event.

        ``succeed(value)``, or ``fail(error)`` when ``error`` is given,
        with no push and no pop: the callbacks have run when this
        returns, and the event reads as processed.  It equals
        ``succeed``/``fail`` whenever the pop they would push comes
        next: the caller fires as the running event's last act, and no
        other item is due at this instant (DESIGN.md §13).  A failure
        that no callback defuses raises here, inside the running event,
        as its pop would have.  A process that yields the event later
        resumes through the URGENT relay, as for any processed event.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        if error is None:
            self._value = value
        else:
            self._value = error
            self._ok = False
        self._process()

    def defuse(self) -> None:
        """Mark a failed event as handled even if nobody waits on it."""
        self._defused = True

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for callback in callbacks or ():
            callback(self)
        if not self._ok and not self._defused:
            raise self._value


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._push(self, delay, NORMAL)


def _describe_event(target: Callable[[], None]) -> str:
    """Qualified name of the code a scheduled item will run, for race reports.

    Called for each popped item while a race detector is armed, so the
    ``Race``/``render()`` output can point at source
    (``process:Writer.run``) instead of bare sequence numbers.  Uses
    duck typing on ``generator`` because the generator steppers of
    :mod:`repro.sim.process` live downstream of this module.
    ``target`` is the scheduled callable — an ``Event._process`` bound
    method, or a raw callback from :meth:`Simulator.defer` or
    :meth:`Simulator.defer_now`.
    """
    if isinstance(target, partial):
        target = target.func  # a deadline's pop names its owner's method
    event = getattr(target, "__self__", None)
    if not isinstance(event, Event):
        return f"deferred:{getattr(target, '__qualname__', type(target).__name__)}"
    generator = getattr(event, "generator", None)
    if generator is not None:
        return f"process:{getattr(generator, '__qualname__', '?')}"
    for callback in event.callbacks or ():
        generator = getattr(getattr(callback, "__self__", None), "generator", None)
        if generator is not None:
            # A bound _resume, of a process or of a run stepped in place.
            return f"resume:{getattr(generator, '__qualname__', '?')}"
        return f"callback:{getattr(callback, '__qualname__', type(callback).__name__)}"
    return type(event).__name__.lower()


def _watch_races(detector: "RaceDetector") -> Callable[[_ScheduledItem], _ScheduledItem]:
    """Pop observer that brackets each event in ``begin_event``/``end_event``."""

    def observe(item: _ScheduledItem) -> _ScheduledItem:
        time, priority, seq, run = item
        label = _describe_event(run)

        def run_watched() -> None:
            detector.begin_event(time, priority, seq, label)
            try:
                run()
            finally:
                detector.end_event()

        return (time, priority, seq, run_watched)

    return observe


class Simulator:
    """Deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.process(my_generator_function(sim))
        sim.run(until=100.0)

    :attr:`events` counts the events popped so far (a callable that
    :meth:`defer_now` runs in place is not one); a metrics registry
    reports it as ``sim.events``.  With ``detect_races=True`` the
    simulator records, for every ``(time, priority)`` bucket holding
    more than one event, which shared resources the callbacks touched
    (via :meth:`touch_resource`), and :attr:`races` reports buckets
    whose ordering was decided only by insertion order while
    conflicting on a resource — see :mod:`repro.analysis.races`.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        detect_races: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[RequestTracer] = None,
    ) -> None:
        self._now = float(start_time)
        self._sched: HeapScheduler = SCHEDULERS[_default_scheduler_name]()
        self._race_detector: Optional["RaceDetector"] = None
        if detect_races:
            from repro.analysis.races import RaceDetector

            self._race_detector = RaceDetector()
            watched = observe_pops(type(self._sched), _watch_races(self._race_detector))
            self._sched = watched()
        self._seq = itertools.count()
        self.events = 0
        # What defer_now() left for the end of the running event, and
        # whether a run() loop is there to see it.
        self._parked: Optional[_ScheduledItem] = None
        self._running = False
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.metrics.bind_clock(lambda: self._now)
        self.metrics.publish("sim", self, ("events",))
        # The request tracer rides alongside the registry: components
        # read ``sim.tracer`` once at construction and per-request
        # contexts are carried explicitly on requests, so the disabled
        # case (the shared null tracer) costs nothing on the hot loop.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(lambda: self._now)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- observability ---------------------------------------------------

    def touch_resource(self, resource: str, write: bool = True) -> None:
        """Record a shared-resource touch for race detection.

        No-op unless the simulator was built with ``detect_races=True``,
        so instrumented resources can call this unconditionally.
        """
        if self._race_detector is not None:
            self._race_detector.touch(resource, write)

    @property
    def races(self) -> "List[Race]":
        """Same-timestamp conflicts observed so far (empty when
        race detection is off)."""
        if self._race_detector is None:
            return []
        return self._race_detector.report()

    # -- event creation ------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Iterator[Event]) -> "Process":
        """Start a generator-based process (see :mod:`repro.sim.process`)."""
        from repro.sim.process import Process

        return Process(self, generator)

    def all_of(self, events: list[Event]) -> Event:
        """Event that fires once every event in ``events`` has fired."""
        gate = self.event()
        remaining = len(events)
        if remaining == 0:
            gate.succeed([])
            return gate
        results: list[Any] = [None] * remaining
        state = {"left": remaining, "failed": False}

        def make_callback(index: int) -> Callable[[Event], None]:
            def on_fire(ev: Event) -> None:
                if state["failed"]:
                    return
                if not ev.ok:
                    state["failed"] = True
                    ev.defuse()
                    if not gate.triggered:
                        gate.fail(ev.value)
                    return
                results[index] = ev.value
                state["left"] -= 1
                if state["left"] == 0 and not gate.triggered:
                    gate.succeed(list(results))

            return on_fire

        for i, ev in enumerate(events):
            if ev.processed:
                make_callback(i)(ev)
            else:
                ev.callbacks.append(make_callback(i))
        return gate

    def any_of(self, events: list[Event]) -> Event:
        """Event that fires as soon as any event in ``events`` fires."""
        gate = self.event()
        if not events:
            gate.succeed(None)
            return gate

        def on_fire(ev: Event) -> None:
            if gate.triggered:
                if not ev.ok:
                    ev.defuse()
                return
            if ev.ok:
                gate.succeed(ev.value)
            else:
                ev.defuse()
                gate.fail(ev.value)

        for ev in events:
            if ev.processed:
                on_fire(ev)
            else:
                ev.callbacks.append(on_fire)
        return gate

    # -- scheduling internals -------------------------------------------

    def _push(self, event: Event, delay: float, priority: int) -> None:
        self._sched.push(
            (self._now + delay, priority, next(self._seq), event._process)
        )

    def defer(
        self, delay: float, fn: Callable[[], None], priority: int = NORMAL
    ) -> None:
        """Run ``fn()`` after ``delay`` seconds.

        This creates no :class:`Event` (and hence nothing to wait on or
        cancel): the callable itself is the scheduled item.  It shares
        the events' sequence counter, so a deferred callback and an
        event due at the same instant and priority pop in the order
        they were scheduled.
        """
        if delay < 0:
            raise SimulationError(f"negative defer delay: {delay!r}")
        self._sched.push((self._now + delay, priority, next(self._seq), fn))

    def defer_at(
        self, time: float, fn: Callable[[], None], priority: int = NORMAL
    ) -> None:
        """Run ``fn()`` at absolute simulated ``time`` — :meth:`defer` by instant.

        The item is scheduled at ``time`` itself, not at
        ``now + (time - now)``, so a deadline computed by repeated
        addition lands on exactly that float.
        """
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        self._sched.push((time, priority, next(self._seq), fn))

    def defer_now(self, fn: Callable[[], None]) -> None:
        """``defer(0.0, fn)``, run inside the running event when it would pop next.

        The item takes its seq now.  Inside :meth:`run`, ``fn`` runs at
        the end of the running event if no queued item then sorts
        before ``(now, NORMAL, seq)``; otherwise, and outside
        :meth:`run` (set-up, :meth:`step`, :meth:`run_until_event`),
        the item is pushed with that seq.  So ``fn`` runs exactly where
        its pop would have (DESIGN.md §13).  An in-place run counts
        toward ``max_events`` but not toward :attr:`events`, and the
        race detector brackets it as its own event.
        """
        item = (self._now, NORMAL, next(self._seq), fn)
        if self._running and self._parked is None:
            self._parked = item
        else:
            self._sched.push(item)

    def _run_parked(self, limit: int) -> int:
        """Run the parked item in place, or push it if a queued item sorts
        before it; repeat, up to ``limit`` runs, for one that it parks.
        Returns how many ran in place."""
        detector = self._race_detector
        ran = 0
        while self._parked is not None and ran < limit:
            item, self._parked = self._parked, None
            if not self._sched.pops_first(item):
                self._sched.push(item)
                break
            ran += 1
            if detector is None:
                item[3]()
            else:
                _watch_races(detector)(item)[3]()
        return ran

    # -- running ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next scheduled event."""
        try:
            item = self._sched.pop()
        except IndexError:
            raise SimulationError("no scheduled events") from None
        self._now = item[0]
        self.events += 1
        item[3]()

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains, or until simulated time ``until``.

        Returns the simulated time at which the run stopped.  An
        ``until`` before the clock raises: the clock never runs back.
        The ``max_events`` guard turns accidental infinite event loops
        into a loud error instead of a hang.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run back in time: {until} < {self._now}")
        if self._running:
            raise SimulationError("the simulator is already running")
        sched = self._sched
        pop = sched.pop
        processed = 0
        in_place = 0
        self._running = True
        try:
            # The try/except around each bare pop is free until the
            # queue drains (zero-cost exceptions), replacing a
            # per-event emptiness check; an empty queue peeks at inf.
            if until is not None:
                peek = sched.peek_time
                while peek() <= until:
                    try:
                        item = pop()
                    except IndexError:  # ``until`` is inf and the queue drained
                        break
                    self._now = item[0]
                    processed += 1
                    item[3]()
                    if self._parked is not None:
                        ran = self._run_parked(max_events - processed)
                        processed += ran
                        in_place += ran
                    if processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "possible runaway event loop"
                        )
                self._now = until
                return self._now
            while True:
                try:
                    item = pop()
                except IndexError:
                    break
                self._now = item[0]
                processed += 1
                item[3]()
                if self._parked is not None:
                    ran = self._run_parked(max_events - processed)
                    processed += ran
                    in_place += ran
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible runaway event loop"
                    )
            return self._now
        finally:
            if self._parked is not None:  # the running event raised
                sched.push(self._parked)
                self._parked = None
            self._running = False
            self.events += processed - in_place

    def run_until_event(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises :class:`SimulationError` if the queue drains or ``limit``
        is reached before the event fires.
        """
        if self._running:
            raise SimulationError("the simulator is already running")
        while not event.processed:
            if not self._sched:
                raise SimulationError("event queue drained before target event fired")
            if self._sched.peek_time() > limit:
                raise SimulationError(f"time limit {limit} reached before target event fired")
            self.step()
        if not event.ok:
            raise event.value
        return event.value
