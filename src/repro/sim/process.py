"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.kernel.Event`
objects.  Yielding an event suspends the process until the event fires;
the event's value becomes the result of the ``yield`` expression.  A
failed event re-raises its exception inside the generator, so processes
handle simulated failures with ordinary ``try``/``except``.  Inside an
event, :func:`step_in_place` steps one with no start or finish event.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, Iterator, Optional

from repro.sim.kernel import Event, Interrupt, SimulationError, Simulator, URGENT

__all__ = ["Process", "step_in_place"]

#: ``done(value, error)``: ``error`` is ``None`` if the generator returned.
Done = Callable[[Any, Optional[BaseException]], None]


class _Stepper:
    """The one loop that steps a generator; ``_end`` hears how it ended."""

    __slots__ = ()
    sim: Simulator
    generator: Iterator[Event]
    _waiting_on: Optional[Event]
    _end: Done

    def _resume(self, event: Event) -> bool:
        """Run the generator to its next yield; True while it still runs."""
        self._waiting_on = None
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            self._end(stop.value, None)
            return False
        except BaseException as exc:
            self._end(None, exc)
            return False

        if not isinstance(target, Event):
            # Tear down the generator so the error points at the culprit.
            self.generator.close()
            name = getattr(self.generator, "__name__", "process")
            self._end(None, SimulationError(
                f"process {name!r} yielded {target!r}; processes must yield events"
            ))
            return False
        if target.processed:
            # Already fired: resume immediately (still via the queue for
            # deterministic ordering at this timestamp).
            relay = Event(self.sim)
            relay.callbacks.append(self._resume)
            if target.ok:
                relay.succeed(target.value, priority=URGENT)
            else:
                relay.fail(target.value, priority=URGENT)
                relay.defuse()
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)
            # A waiting generator handles the failure, so the kernel must
            # not also surface it at processing time.
            target.defuse()
        return True


class Process(Event, _Stepper):
    """A running process; also an event that fires when the process ends.

    The event value is the generator's return value, so one process can
    wait for another simply by yielding it::

        result = yield sim.process(child(sim))
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, sim: Simulator, generator: Iterator[Event]) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process requires a generator, got {type(generator)!r}")
        self.generator = generator
        self._waiting_on = None
        # Bootstrap: resume the generator at the current time.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process twice before it resumes queues both interrupts.
        """
        if self._triggered:
            name = getattr(self.generator, "__name__", "process")
            raise SimulationError(f"cannot interrupt finished process {name!r}")
        if self._waiting_on is not None:
            waited, self._waiting_on = self._waiting_on, None
            if not waited.processed and waited.callbacks is not None:
                try:
                    waited.callbacks.remove(self._resume)
                except ValueError:
                    pass
        poke = Event(self.sim)
        poke.callbacks.append(self._resume)
        poke.fail(Interrupt(cause), priority=URGENT)
        poke.defuse()

    def _end(self, value: Any, error: Optional[BaseException]) -> None:
        if not self._triggered:
            if error is None:
                self.succeed(value)
            else:
                self.fail(error)


class _InPlace(_Stepper):
    """A run of :func:`step_in_place`; its ``_end`` is the caller's ``done``."""

    __slots__ = ("sim", "generator", "_waiting_on", "_end")

    def __init__(self, sim: Simulator, generator: Iterator[Event], done: Done) -> None:
        self.sim = sim
        self.generator = generator
        self._waiting_on = None
        self._end = done


#: What an in-place run's first step is sent, as a bootstrap event sends it.
_STARTED: Any = SimpleNamespace(ok=True, value=None)


def step_in_place(sim: Simulator, generator: Iterator[Event], done: Done) -> bool:
    """Step ``generator`` as a process is stepped, but as no event of its own.

    The first step runs now, inside the caller's event; each later step
    runs inside the event that resumes it (an event already processed
    resumes it through one URGENT relay, as for a process), and
    ``done(value, error)`` runs in the step that ends it.  Nothing can
    wait on or interrupt the run.  True while the generator still runs.
    """
    return _InPlace(sim, generator, done)._resume(_STARTED)
