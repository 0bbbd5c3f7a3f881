"""Discrete-event simulation kernel.

The kernel is a deterministic event loop: callbacks are ordered by
(time, priority, sequence number), so two simulations configured with the
same seeds replay identically.  Generator-based processes are layered on
top in :mod:`repro.sim.process`.

Two interchangeable schedulers implement that total order (see
DESIGN.md §13):

* :class:`CalendarQueue` (the default) — a calendar/ladder structure
  that keeps the near future as one lazily sorted window and everything
  beyond the window horizon as an unsorted spill list, so pushes are
  plain appends on the hot path;
* :class:`HeapScheduler` — the retained ``heapq`` reference
  implementation, selectable via ``Simulator(scheduler="heap")`` or
  :func:`use_scheduler`, and the oracle the property tests compare the
  calendar queue against.

Both pop scheduled items in exactly the same ``(time, priority, seq)``
order, so :class:`repro.sim.trace.EventDigest` replay fingerprints are
byte-identical whichever scheduler runs a simulation.

This module depends only on the standard library and the (equally
stdlib-only) :mod:`repro.obs` metrics layer; every other ``repro``
subsystem is built on it.
"""

from __future__ import annotations

import itertools
from bisect import insort
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
    Union,
)

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACER, RequestTracer

if TYPE_CHECKING:  # avoid an import cycle: analysis only uses stdlib
    from repro.analysis.races import Race, RaceDetector
    from repro.sim.deadline import Grid
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
    """Reference scheduler: one global binary heap (``heapq``).

    ``push``/``pop`` are O(log n).  Kept both as the oracle for the
    calendar-queue property tests and as a fallback selectable with
    ``Simulator(scheduler="heap")``.
    """

    __slots__ = ("_heap",)

    name = "heap"

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

    def __len__(self) -> int:
        return len(self._heap)


class CalendarQueue:
    """Calendar/ladder event scheduler: sorted window + unsorted future.

    The structure keeps two tiers:

    * ``_cur`` — every pending item with ``time < _horizon``, held as one
      ascending-sorted list consumed through an index pointer (``_idx``)
      instead of repeated ``list.pop(0)`` shifts;
    * ``_fut`` — every item at or beyond the horizon, completely
      unsorted, so the common push (a timer strictly in the future) is a
      plain C-speed ``list.append``.

    When the window drains, :meth:`_advance` jumps the horizon to
    ``min(_fut).time + _width``, partitions ``_fut``, and sorts the new
    window once (Timsort, C).  Pops therefore cost an index bump; pushes
    cost an append, or a ``bisect.insort`` bounded to the unconsumed
    suffix when a new item lands inside the open window.

    **Ordering contract**: pops follow the exact ``(time, priority,
    seq)`` tuple order — the invariant that every ``_fut`` item's time
    is ``>= _horizon`` while every pending ``_cur`` item's is below it
    means the global minimum always lives in the window, and the sorted
    window plus suffix-bounded insorts keep ties (same time, same
    priority) resolved by the unique ``seq`` exactly as the heap
    reference resolves them.  The property tests in
    ``tests/test_calendar_queue.py`` pin this equivalence across seeds.

    **Resize policy**: the window width adapts multiplicatively to the
    observed event density — a window that arrives with fewer than
    ``widen_below`` items doubles the width (amortizing the per-window
    partition/sort overhead over more events) and one with more than
    ``halve_above`` items halves it (bounding the insort suffix and the
    batch sort).  Width never drops below ``1e-12`` seconds so repeated
    halving cannot collapse it to zero.
    """

    __slots__ = ("_cur", "_idx", "_fut", "_horizon", "_width", "_len",
                 "_widen_below", "_halve_above")

    name = "calendar"

    #: Window occupancy targets for the multiplicative resize policy.
    WIDEN_BELOW = 16
    HALVE_ABOVE = 8192
    MIN_WIDTH = 1e-12

    def __init__(
        self,
        initial_width: float = 1.0,
        widen_below: int = WIDEN_BELOW,
        halve_above: int = HALVE_ABOVE,
    ) -> None:
        if initial_width <= 0.0:
            raise ValueError(f"window width must be positive: {initial_width!r}")
        if widen_below >= halve_above:
            raise ValueError("widen_below must be smaller than halve_above")
        self._cur: List[_ScheduledItem] = []
        self._idx = 0
        self._fut: List[_ScheduledItem] = []
        self._horizon = -_INFINITY
        self._width = initial_width
        self._len = 0
        self._widen_below = widen_below
        self._halve_above = halve_above

    def push(self, item: _ScheduledItem) -> None:
        self._len += 1
        if item[0] >= self._horizon:
            self._fut.append(item)
            return
        cur = self._cur
        # In-window pushes are usually later than everything pending
        # (self-rescheduling timers), so try the append fast path before
        # falling back to a suffix-bounded insort.
        if not cur or item >= cur[-1]:
            cur.append(item)
        else:
            insort(cur, item, lo=self._idx)

    def pop(self) -> _ScheduledItem:
        """Smallest item by ``(time, priority, seq)``.

        Raises :class:`IndexError` when the queue is empty, like the
        heap reference.
        """
        idx = self._idx
        cur = self._cur
        if idx >= len(cur):
            self._advance()
            idx = self._idx
            cur = self._cur
        item = cur[idx]
        self._idx = idx + 1
        self._len -= 1
        return item

    def _advance(self) -> None:
        """Open the next window: jump the horizon past ``min(_fut)``."""
        fut = self._fut
        if not fut:
            self._cur = []
            self._idx = 0
            raise IndexError("pop from an empty calendar queue")
        width = self._width
        horizon = min(fut)[0] + width
        cur = [it for it in fut if it[0] < horizon]
        if len(cur) < len(fut):
            fut[:] = [it for it in fut if it[0] >= horizon]
        else:
            fut.clear()
        cur.sort()
        occupancy = len(cur)
        if occupancy > self._halve_above and width > self.MIN_WIDTH:
            self._width = width * 0.5
        elif occupancy < self._widen_below:
            self._width = width * 2.0
        self._cur = cur
        self._idx = 0
        self._horizon = horizon

    def peek_time(self) -> float:
        """Time of the next item (``inf`` when empty).

        May advance the window (an internal reorganization; the pop
        order is unaffected).
        """
        if self._idx >= len(self._cur):
            try:
                self._advance()
            except IndexError:
                return _INFINITY
        return self._cur[self._idx][0]

    def __len__(self) -> int:
        return self._len


_Scheduler = Union[HeapScheduler, CalendarQueue]

#: Scheduler name -> factory, for ``Simulator(scheduler=...)``.
SCHEDULERS: Dict[str, Callable[[], _Scheduler]] = {
    "heap": HeapScheduler,
    "calendar": CalendarQueue,
}

_default_scheduler_name = "calendar"


@contextmanager
def use_scheduler(name: str) -> Iterator[None]:
    """Make ``name`` the scheduler of simulators built inside the block.

    Lets callers that never construct simulators directly (experiment
    builders, ``repro check-determinism``) pick the kernel's scheduler
    without threading a parameter through every layer.
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
    queue_class: Type[_Scheduler],
    observer: Callable[[_ScheduledItem], _ScheduledItem],
) -> Type[_Scheduler]:
    """A subclass of ``queue_class`` whose ``pop`` hands each item to
    ``observer`` and returns what the observer returns.

    The one way to watch the event stream: every pop is an event the
    simulator runs, so an observer sees each event once, in order.
    :class:`repro.sim.trace.EventDigest` folds the items it is handed;
    the race detector hands back the item with its callable bracketed.
    Pushes are untouched, so the pop order is the queue's own.
    """
    base_pop = queue_class.pop

    def pop(queue: Any) -> _ScheduledItem:
        return observer(base_pop(queue))

    observed: Type[_Scheduler] = type(
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
    duck typing on ``generator`` because :class:`repro.sim.process.Process`
    lives downstream of this module.  ``target`` is the scheduled
    callable — an ``Event._process`` bound method, or a raw callback
    from :meth:`Simulator.defer`.
    """
    if isinstance(target, partial):
        target = target.func  # a deadline's pop names its owner's method
    event = getattr(target, "__self__", None)
    if not isinstance(event, Event):
        return f"deferred:{getattr(target, '__qualname__', type(target).__name__)}"
    generator = getattr(event, "generator", None)
    if generator is not None:
        return f"process:{getattr(generator, '__qualname__', getattr(event, 'name', '?'))}"
    for callback in event.callbacks or ():
        owner = getattr(callback, "__self__", None)
        owner_gen = getattr(owner, "generator", None)
        if owner_gen is not None:
            # Bound Process._resume: the event resumes that process.
            return f"resume:{getattr(owner_gen, '__qualname__', getattr(owner, 'name', '?'))}"
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

    :attr:`events` counts the events run so far; a metrics registry
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
        scheduler: Optional[str] = None,
    ) -> None:
        self._now = float(start_time)
        name = scheduler if scheduler is not None else _default_scheduler_name
        try:
            factory = SCHEDULERS[name]
        except KeyError:
            raise SimulationError(
                f"unknown scheduler {name!r}; available: "
                f"{', '.join(sorted(SCHEDULERS))}"
            ) from None
        self.scheduler_name = name
        self._sched: _Scheduler = factory()
        self._race_detector: Optional["RaceDetector"] = None
        if detect_races:
            from repro.analysis.races import RaceDetector

            self._race_detector = RaceDetector()
            watched = observe_pops(type(self._sched), _watch_races(self._race_detector))
            self._sched = watched()
        self._seq = itertools.count()
        self._grids: Dict[Tuple[float, float], "Grid"] = {}
        self.events = 0
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

    def grid(self, period: float) -> "Grid":
        """The wake-up grid of loops that sleep ``period`` from now.

        Owners that ask at the same instant for the same period share
        one :class:`~repro.sim.Grid`, so their deadlines keep the order
        in which such loops would have woken together.
        """
        from repro.sim.deadline import Grid

        key = (self._now, period)
        grid = self._grids.get(key)
        if grid is None:
            grid = self._grids[key] = Grid(self._now, period)
        return grid

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
        event scheduled in the same order pop in the same order under
        either scheduler.
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

        Returns the simulated time at which the run stopped.  The
        ``max_events`` guard turns accidental infinite event loops into a
        loud error instead of a hang.
        """
        sched = self._sched
        pop = sched.pop
        processed = 0
        try:
            if until is not None:
                peek = sched.peek_time
                while sched:
                    if peek() > until:
                        self._now = until
                        return self._now
                    item = pop()
                    self._now = item[0]
                    processed += 1
                    item[3]()
                    if processed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "possible runaway event loop"
                        )
                self._now = max(self._now, until)
                return self._now
            while True:
                # The try/except around the bare pop is free until the
                # queue drains (zero-cost exceptions), replacing a
                # per-event emptiness check.
                try:
                    item = pop()
                except IndexError:
                    break
                self._now = item[0]
                processed += 1
                item[3]()
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible runaway event loop"
                    )
            return self._now
        finally:
            self.events += processed

    def run_until_event(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises :class:`SimulationError` if the queue drains or ``limit``
        is reached before the event fires.
        """
        while not event.processed:
            if not self._sched:
                raise SimulationError("event queue drained before target event fired")
            if self._sched.peek_time() > limit:
                raise SimulationError(f"time limit {limit} reached before target event fired")
            self.step()
        if not event.ok:
            raise event.value
        return event.value
