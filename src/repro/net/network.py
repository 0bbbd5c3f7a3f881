"""A simulated data-center network.

Message passing with configurable latency and (optional) per-message
serialization delay.  Nodes are addressed by name; delivery calls the
one handler the destination registered for the payload's ``kind``.  A
crashed node silently drops traffic in both directions, and explicit
partitions can sever pairs of nodes — enough to exercise heartbeat
loss, failover and remount behaviour in the management stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.sim import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["Message", "NetNode", "Network"]


@dataclass(frozen=True)
class Message:
    src: str
    dst: str
    payload: Any
    size: int = 0
    sent_at: float = 0.0


class NetNode:
    """One addressable endpoint with a handler per payload kind."""

    def __init__(self, address: str):
        self.address = address
        self.alive = True
        self._handlers: Dict[str, Callable[[Message], None]] = {}

    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Deliver every message whose payload ``kind`` is ``kind`` to
        ``handler``, called at arrival time inside the delivery."""
        if kind in self._handlers:
            raise ValueError(f"{self.address!r} already handles {kind!r} messages")
        self._handlers[kind] = handler


class Network:
    """Connects nodes; delivers messages with latency."""

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[RngRegistry] = None,
        latency: float = 0.2e-3,
        jitter: float = 0.05e-3,
        bandwidth: float = 1.25e8,  # 1 GbE payload bytes/s
    ):
        self.sim = sim
        self.latency = latency
        self.jitter = jitter
        self.bandwidth = bandwidth
        self._rng = rng or RngRegistry(0)
        # Each (src, dst) link draws its jitter from its own stream,
        # created on first use, so adding or removing messages on one
        # link leaves every other link's draws alone.  Maps a link to
        # its stream's bound ``uniform``.
        self._link_jitter: Dict[Tuple[str, str], Callable[[float, float], float]] = {}
        self._nodes: Dict[str, NetNode] = {}
        self._partitions: Set[Tuple[str, str]] = set()
        self.delivered_count = 0
        self.dropped_count = 0
        self.bytes_carried = 0

    # -- membership ------------------------------------------------------

    def add_node(self, address: str) -> NetNode:
        if address in self._nodes:
            raise ValueError(f"duplicate network address {address!r}")
        node = NetNode(address)
        self._nodes[address] = node
        return node

    def node(self, address: str) -> NetNode:
        return self._nodes[address]

    def __contains__(self, address: str) -> bool:
        return address in self._nodes

    def set_alive(self, address: str, alive: bool) -> None:
        self._nodes[address].alive = alive

    def is_alive(self, address: str) -> bool:
        return address in self._nodes and self._nodes[address].alive

    # -- partitions -----------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Block traffic between ``a`` and ``b`` (both directions)."""
        self._partitions.add((min(a, b), max(a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard((min(a, b), max(a, b)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def _blocked(self, a: str, b: str) -> bool:
        return (min(a, b), max(a, b)) in self._partitions

    # -- transmission ------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size: int = 256) -> None:
        """Fire-and-forget message; dropped if either side is down.

        ``payload`` is a dict whose ``"kind"`` names the handler ``dst``
        registered with :meth:`NetNode.on`; without one the message is
        dropped on arrival.
        """
        if src not in self._nodes:
            raise ValueError(f"unknown sender {src!r}")
        if dst not in self._nodes:
            self.dropped_count += 1
            return
        if not self._nodes[src].alive:
            self.dropped_count += 1
            return
        message = Message(src=src, dst=dst, payload=payload, size=size, sent_at=self.sim.now)
        delay = self.latency + size / self.bandwidth
        # Drawn even when a partition drops the message, so a partition
        # does not shift the jitter of later messages on the link.
        if self.jitter > 0:
            draw = self._link_jitter.get((src, dst))
            if draw is None:
                draw = self._rng.stream(f"network:{src}->{dst}").uniform
                self._link_jitter[(src, dst)] = draw
            delay += draw(0, self.jitter)
        if self._blocked(src, dst):
            self.dropped_count += 1
            return
        self.sim.defer(delay, lambda: self._deliver(message))

    def _deliver(self, message: Message) -> None:
        # A sender that died mid-flight does not matter: the packet is
        # already on the wire (TCP would deliver it too).
        node = self._nodes[message.dst]
        handler = node._handlers.get(message.payload["kind"])
        if handler is None or not node.alive or self._blocked(message.src, message.dst):
            self.dropped_count += 1
            return
        self.delivered_count += 1
        self.bytes_carried += message.size
        handler(message)
