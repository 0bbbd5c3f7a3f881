"""Access-recency promotion/demotion policy (segmented LRU).

The tiering layer must decide which cold objects deserve a hot-tier
copy using nothing but what the gateway can observe — the stream of
object accesses.  There is no metadata database to consult and none is
built here: the policy is a bounded in-memory sketch, fully soft
state, rebuilt empty after a crash (a cache that re-warms).

Classic segmented LRU over object uids:

* first access of a cold object lands it in the bounded **probation**
  segment;
* a second access while still on probation **promotes** it — the
  caller copies the object into the hot tier and the uid moves to the
  **protected** segment;
* protected entries idle past ``idle_seconds`` (or evicted by
  capacity pressure, LRU first) are handed back as **demotion
  candidates** — the hot copy is dropped, the cold copy was always
  authoritative, so demotion is free.

Everything is deterministic: plain ``OrderedDict`` recency order, no
randomness, no wall clock.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.units import SimSeconds

__all__ = ["SegmentedLruPolicy"]


class SegmentedLruPolicy:
    """Bounded segmented-LRU promotion filter over object uids."""

    def __init__(
        self,
        protected_capacity: int = 64,
        probation_capacity: int = 512,
        idle_seconds: SimSeconds = SimSeconds(120.0),
    ) -> None:
        if protected_capacity < 1 or probation_capacity < 1:
            raise ValueError("segment capacities must be positive")
        if idle_seconds <= 0:
            raise ValueError("idle_seconds must be positive")
        self.protected_capacity = protected_capacity
        self.probation_capacity = probation_capacity
        self.idle_seconds = idle_seconds
        #: uid -> last access time, oldest first (LRU order).
        self._probation: "OrderedDict[str, float]" = OrderedDict()
        self._protected: "OrderedDict[str, float]" = OrderedDict()

    # -- accesses ---------------------------------------------------------

    def record_access(self, uid: str, now: float) -> bool:
        """Feed one observed access; True means "promote this uid now".

        The caller owns the actual data movement — a True return only
        moves the uid into the protected segment.  Accesses to already
        protected uids refresh their recency and never re-promote.
        """
        if uid in self._protected:
            self._protected.move_to_end(uid)
            self._protected[uid] = now
            return False
        if uid in self._probation:
            del self._probation[uid]
            self._protected[uid] = now
            return True
        self._on_probation(uid, now)
        return False

    def withdraw(self, uid: str) -> None:
        """Take back a promotion the caller could not carry out.

        The uid returns to probation with its last access time, so its
        next access promotes it again.
        """
        last = self._protected.pop(uid, None)
        if last is not None:
            self._on_probation(uid, last)

    def _on_probation(self, uid: str, now: float) -> None:
        self._probation[uid] = now
        while len(self._probation) > self.probation_capacity:
            self._probation.popitem(last=False)

    # -- demotion ---------------------------------------------------------

    def demotion_candidates(self, now: float) -> List[str]:
        """Protected uids to drop: idle past the window, then LRU overflow.

        Removes the returned uids from the protected segment — the
        caller is expected to drop the corresponding hot copies.
        """
        victims: List[str] = []
        for uid in list(self._protected):
            if now - self._protected[uid] >= self.idle_seconds:
                victims.append(uid)
                del self._protected[uid]
        while len(self._protected) > self.protected_capacity:
            uid, _ = self._protected.popitem(last=False)
            victims.append(uid)
        return victims

    def reset(self) -> None:
        """Lose all soft state, as a crash of the tiering node would."""
        self._probation.clear()
        self._protected.clear()

    # -- introspection ----------------------------------------------------

    def is_protected(self, uid: str) -> bool:
        return uid in self._protected

    def sizes(self) -> Dict[str, int]:
        return {
            "probation": len(self._probation),
            "protected": len(self._protected),
        }
