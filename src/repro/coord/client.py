"""Client sessions against the coordination cluster.

A :class:`CoordSession` mirrors the ZooKeeper client the prototype's
hosts use: it discovers the current leader, keeps its session alive
with pings (so its ephemeral znodes survive), registers watches, and
transparently retries operations across leader failovers.  A watch
lives on the leader that accepted it and is lost with that leader;
unlike a real ZooKeeper client, a session does not re-register its
watches after a failover.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.coord.service import CoordConfig
from repro.net.network import Message, Network
from repro.net.rpc import RemoteError, RpcClient, RpcTimeout
from repro.sim import Event, Simulator

__all__ = ["CoordSession", "SessionExpiredError"]


class SessionExpiredError(Exception):
    """The cluster expired this session (its ephemerals are gone)."""


class CoordSession:
    """One client's connection to the coordination cluster."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        servers: List[str],
        session_timeout: float = CoordConfig().session_timeout,
        ping_interval: Optional[float] = None,
    ):
        if not servers:
            raise ValueError("need at least one coordination server")
        self.sim = sim
        self.network = network
        self.address = address
        self.servers = list(servers)
        self.session_id = f"session:{address}"
        self.session_timeout = session_timeout
        self.ping_interval = ping_interval or session_timeout / 4
        self.rpc = RpcClient(sim, network, address)
        self._leader_guess: Optional[str] = servers[0]
        self._watch_callbacks: Dict[Tuple[str, str], List[Callable[[str, str], None]]] = {}
        self.started = False
        self.expired = False
        network.node(address).on("watch_event", self._on_watch_event)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> Generator[Event, None, None]:
        """Create the session on the cluster and start keepalives."""
        yield from self._op(["create_session", self.session_id, self.session_timeout])
        self.started = True
        self.sim.process(self._ping_loop())

    def _ping_loop(self) -> Generator[Event, None, None]:
        while not self.expired:
            yield self.sim.timeout(self.ping_interval)
            try:
                yield from self._leader_call(
                    "coord.ping_session", self.session_id, retries=2
                )
            except SessionExpiredError:
                return  # ephemerals are gone; the owner must start anew
            except (RpcTimeout, RemoteError):
                # Keep trying; the expirer decides when we are gone.
                continue

    # -- leader discovery -----------------------------------------------------

    def _candidates(self) -> List[str]:
        ordered = []
        if self._leader_guess:
            ordered.append(self._leader_guess)
        ordered.extend(s for s in self.servers if s not in ordered)
        return ordered

    def _leader_call(
        self, method: str, *args: Any, retries: int = 6, timeout: float = 1.0
    ) -> Generator[Event, None, Any]:
        last_error: Optional[Exception] = None
        for _ in range(retries):
            for server in self._candidates():
                try:
                    result = yield from self.rpc.call(
                        server, method, *args, timeout=timeout
                    )
                    self._leader_guess = server
                    return result
                except RpcTimeout as exc:
                    last_error = exc
                    continue
                except RemoteError as exc:
                    message = str(exc)
                    if "NotLeader:" in message:
                        hint = message.rsplit("NotLeader:", 1)[1].strip()
                        self._leader_guess = hint if hint in self.servers else None
                        last_error = exc
                        continue
                    if "unknown session" in message:
                        self.expired = True
                        raise SessionExpiredError(self.session_id) from exc
                    raise
            yield self.sim.timeout(0.25)  # give an election time to finish
        raise last_error or RpcTimeout(f"no leader found for {method}")

    def _op(self, op: list) -> Generator[Event, None, Any]:
        result = yield from self._leader_call("coord.client_op", op)
        return result

    # -- namespace API -----------------------------------------------------

    def create(
        self,
        path: str,
        data: Any = None,
        ephemeral: bool = False,
        sequential: bool = False,
    ) -> Generator[Event, None, str]:
        owner = self.session_id if ephemeral else None
        result = yield from self._op(["create", path, data, owner, sequential])
        return result

    def set_data(self, path: str, data: Any) -> Generator[Event, None, int]:
        result = yield from self._op(["set", path, data])
        return result

    def delete(self, path: str) -> Generator[Event, None, bool]:
        result = yield from self._op(["delete", path])
        return result

    def get_data(self, path: str) -> Generator[Event, None, Any]:
        result = yield from self._leader_call("coord.read", "get", path)
        return result

    def exists(self, path: str) -> Generator[Event, None, bool]:
        result = yield from self._leader_call("coord.read", "exists", path)
        return result

    def get_children(self, path: str) -> Generator[Event, None, List[str]]:
        result = yield from self._leader_call("coord.read", "children", path)
        return result

    # -- watches -------------------------------------------------------------

    def watch(
        self, path: str, callback: Callable[[str, str], None], kind: str = "node"
    ) -> Generator[Event, None, None]:
        """One-shot watch; ``callback(path, event_type)`` fires on change.

        The watch lives on the leader that accepts it and is lost if
        that leader fails.
        """
        self._watch_callbacks.setdefault((path, kind), []).append(callback)
        yield from self._leader_call("coord.watch", self.address, path, kind)

    def _on_watch_event(self, message: Message) -> None:
        path = message.payload["path"]
        event_type = message.payload["type"]
        fired: List[Callable[[str, str], None]] = []
        for kind in ("node", "children"):
            fired.extend(self._watch_callbacks.pop((path, kind), []))
        for callback in fired:
            callback(path, event_type)
