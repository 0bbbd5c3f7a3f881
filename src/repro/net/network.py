"""A simulated data-center network.

Message passing with configurable latency and (optional) per-message
serialization delay.  Nodes are addressed by name; delivery calls the
one handler the destination registered for the payload's ``kind``.  A
crashed node silently drops traffic in both directions, and explicit
partitions can sever pairs of nodes — enough to exercise heartbeat
loss, failover and remount behaviour in the management stack.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Set, Tuple

from repro.net.rpc import RpcTimeouts
from repro.sim import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["Message", "NetNode", "Network"]


class Message(NamedTuple):
    """One message in flight; immutable, and cheap to build."""

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
        # its stream's bound ``random``: ``jitter * random()`` is
        # bit-identical to ``uniform(0, jitter)``, which computes
        # ``0 + (jitter - 0) * random()``.
        self._link_jitter: Dict[Tuple[str, str], Callable[[], float]] = {}
        self._nodes: Dict[str, NetNode] = {}
        self._partitions: Set[Tuple[str, str]] = set()
        self.delivered_count = 0
        self.dropped_count = 0
        self.bytes_carried = 0
        #: The call deadlines of every RpcClient on this network.
        self.rpc_timeouts = RpcTimeouts(sim)

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
        self._partitions.add(_pair(a, b))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(_pair(a, b))

    def heal_all(self) -> None:
        self._partitions.clear()

    # -- transmission ------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size: int = 256) -> None:
        """Fire-and-forget message; dropped if either side is down.

        ``payload`` is a dict whose ``"kind"`` names the handler ``dst``
        registered with :meth:`NetNode.on`; without one the message is
        dropped on arrival.
        """
        nodes = self._nodes
        if src not in nodes:
            raise ValueError(f"unknown sender {src!r}")
        if dst not in nodes or not nodes[src].alive:
            self._drop(src, dst, payload)
            return
        delay = self.latency + size / self.bandwidth
        # Drawn even when a partition drops the message, so a partition
        # does not shift the jitter of later messages on the link.
        if self.jitter > 0:
            draw = self._link_jitter.get((src, dst))
            if draw is None:
                draw = self._rng.stream(f"network:{src}->{dst}").random
                self._link_jitter[(src, dst)] = draw
            delay += self.jitter * draw()
        # No workload partitions anything, so the common case is one
        # truth test of an empty set.
        if self._partitions and _pair(src, dst) in self._partitions:
            self._drop(src, dst, payload)
            return
        message = Message(src, dst, payload, size, self.sim.now)
        self.sim.defer(delay, lambda: self._deliver(message))

    def _deliver(self, message: Message) -> None:
        # A sender that died mid-flight does not matter: the packet is
        # already on the wire (TCP would deliver it too).
        src, dst, payload, size, _ = message
        node = self._nodes[dst]
        handler = node._handlers.get(payload["kind"])
        if (
            handler is None
            or not node.alive
            or (self._partitions and _pair(src, dst) in self._partitions)
        ):
            self._drop(src, dst, payload)
            return
        self.delivered_count += 1
        self.bytes_carried += size
        handler(message)

    def _drop(self, src: str, dst: str, payload: Any) -> None:
        """Count a lost message; a lost RPC request or reply files its
        call's deadline, since that call can now only time out."""
        self.dropped_count += 1
        self.rpc_timeouts.lost(src, dst, payload)


def _pair(a: str, b: str) -> Tuple[str, str]:
    """The unordered link ``a``–``b`` as one ordered key."""
    return (a, b) if a < b else (b, a)
