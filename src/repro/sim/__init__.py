"""Deterministic discrete-event simulation kernel for the UStore repro."""

from repro.sim.deadline import Deadline, Grid
from repro.sim.kernel import (
    SCHEDULERS,
    CalendarQueue,
    Event,
    HeapScheduler,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
    observe_pops,
    use_scheduler,
)
from repro.sim.process import Process, step_in_place
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry
from repro.sim.trace import EventDigest

__all__ = [
    "CalendarQueue",
    "Deadline",
    "Event",
    "EventDigest",
    "Grid",
    "HeapScheduler",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "SCHEDULERS",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "observe_pops",
    "step_in_place",
    "use_scheduler",
]
