"""Shared-resource primitives for simulation processes.

Provides:

* :class:`Resource` — a capacity-limited server with a FIFO queue.
* :class:`Store` — a FIFO buffer of Python objects.

All requests are events, so processes compose them with timeouts via
``Simulator.any_of`` for bounded waits.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.kernel import Event, SimulationError, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A server with ``capacity`` concurrent slots and a FIFO wait queue.

    Named resources participate in same-timestamp race detection: each
    ``request``/``release`` reports a write-touch to the simulator, so
    ``Simulator(detect_races=True)`` can flag grant orders that are
    decided only by event insertion order.  Anonymous resources are not
    tracked.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: Optional[str] = None) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users = 0
        self._waiters: Deque[Event] = deque()

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Event that fires once a slot is held.  Pair with :meth:`release`."""
        if self.name is not None:
            self.sim.touch_resource(self.name, write=True)
        event = self.sim.event()
        if self.users < self.capacity:
            self.users += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Give back one slot, waking the next waiter if any."""
        if self.users <= 0:
            raise SimulationError("release() without a matching request()")
        if self.name is not None:
            self.sim.touch_resource(self.name, write=True)
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.users -= 1


class Store:
    """An unbounded (or bounded) buffer of items; FIFO on both sides.

    As with :class:`Resource`, giving a Store a ``name`` opts it into
    same-timestamp race detection.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` is accepted into the store."""
        if self.name is not None:
            self.sim.touch_resource(self.name, write=True)
        event = self.sim.event()
        if self._getters:
            self._getters.popleft().succeed(item)
            event.succeed()
            return event
        if len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Event that fires with the next item."""
        if self.name is not None:
            self.sim.touch_resource(self.name, write=True)
        event = self.sim.event()
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters and len(self.items) < self.capacity:
            event, item = self._putters.popleft()
            self.items.append(item)
            event.succeed()
