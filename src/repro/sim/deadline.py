"""Deadline scheduling: one armed wake-up per owner instead of a polling loop.

A polling loop wakes on every tick of its period whether or not anything
is due.  A :class:`Deadline` keeps at most one live pop in the
simulator's scheduler, at the earliest instant its owner asked for:

* arming later than the armed instant adds no pop — the armed pop fires
  first, and the owner re-evaluates and re-arms from its action;
* arming earlier schedules a new pop, and the superseded one returns
  without acting when it comes up.

:class:`Grid` keeps the instants a fixed-period loop started at
``origin`` would have woken at, stepped by repeated addition of the
period exactly as a chain of ``timeout(period)`` computes them, so a
deadline placed on the grid fires at the same float instant at which
the loop would have acted.  Deadlines that fall due at the same instant
fire in the order they were armed.  See DESIGN.md §8, "Control-plane
timers".
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.sim.kernel import NORMAL, Simulator

__all__ = ["Deadline", "Grid"]

_NEVER = float("inf")


class Grid:
    """The wake-up instants of a loop that sleeps ``period`` from ``origin``."""

    __slots__ = ("period", "_last")

    def __init__(self, origin: float, period: float) -> None:
        self.period = period
        self._last = origin  # latest grid instant known not to be after now

    def first_after(
        self, now: float, due: Optional[Callable[[float], bool]] = None
    ) -> float:
        """First grid instant after ``now`` at which ``due(instant)`` holds.

        ``due`` must hold eventually; without it the next instant is
        returned.
        """
        period = self.period
        tick = self._last
        following = tick + period
        while following <= now:
            tick = following
            following = tick + period
        self._last = tick
        if due is not None:
            while not due(following):
                following += period
        return following


class Deadline:
    """One owner's armed wake-up; ``action()`` runs when it fires."""

    __slots__ = ("sim", "at", "_action", "_live", "_pushes")

    def __init__(self, sim: Simulator, action: Callable[[], None]) -> None:
        self.sim = sim
        self._action = action
        #: Instant of the live pop (``inf`` while disarmed).
        self.at = _NEVER
        self._pushes = 0
        self._live = 0  # number of the live pop; 0 while disarmed

    @property
    def armed(self) -> bool:
        return self._live != 0

    def arm(self, time: float) -> None:
        """Fire at ``time`` unless already armed at or before it."""
        if time < self.at:
            self.at = time
            self._push(time)

    def disarm(self) -> None:
        """Drop the live pop; it returns without acting when it comes up."""
        self._live = 0
        self.at = _NEVER

    def _push(self, time: float) -> None:
        self._pushes += 1
        self._live = self._pushes
        self.sim.defer_at(time, partial(self._pop, self._pushes), NORMAL)

    def _pop(self, number: int) -> None:
        if number != self._live:
            return  # superseded or disarmed
        self.disarm()
        self._action()
