"""The interconnect fabric graph and path routing.

A :class:`Fabric` is a DAG whose leaves are disks and whose roots are
host ports.  Every non-root component has exactly one upstream edge,
except switches which have two (the active one is selected by the switch
state).  Any assignment of switch states therefore partitions the fabric
into non-overlapping trees, each rooted at one host port — exactly the
property the paper relies on (§III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.fabric.components import (
    Bridge,
    DiskNode,
    FabricError,
    FabricNode,
    HostPort,
    Hub,
    NodeKind,
    Switch,
)

__all__ = ["Fabric", "Path", "SwitchSetting"]


@dataclass(frozen=True)
class SwitchSetting:
    """A switch together with the state a path requires of it."""

    switch_id: str
    state: int


@dataclass(frozen=True)
class Path:
    """One upward path from a disk to a host port."""

    disk_id: str
    host_port_id: str
    host_id: str
    nodes: Tuple[str, ...]
    settings: Tuple[SwitchSetting, ...] = field(default_factory=tuple)

    def requires(self, switch_id: str) -> Optional[int]:
        """State this path requires of ``switch_id``, or None if unused."""
        for setting in self.settings:
            if setting.switch_id == switch_id:
                return setting.state
        return None


class Fabric:
    """Mutable interconnect fabric: components plus upstream wiring."""

    def __init__(self, name: str = "fabric"):
        self.name = name
        self.nodes: Dict[str, FabricNode] = {}
        # node_id -> ordered upstream node ids (2 for switches, 1 otherwise)
        self._upstreams: Dict[str, List[str]] = {}
        # node_id -> downstream node ids (derived, kept in sync)
        self._downstreams: Dict[str, List[str]] = {}
        # Topology epoch: bumped on every routing-relevant mutation
        # (wiring, switch turns, failures/repairs).  Consumers key their
        # caches on it — see trace_up and repro.fabric.bandwidth.
        self._epoch = 0
        self._trace_cache: Dict[Tuple[str, bool], Tuple[str, ...]] = {}
        self._trace_cache_epoch = -1
        self._epoch_listeners: List[Callable[[], None]] = []
        # Switch commands run on this fabric by execute_plan, published
        # as ``switch.*`` to the registry a command is counted for.
        self.commands = 0
        self.noop_commands = 0
        self.turns = 0

    @property
    def epoch(self) -> int:
        """Monotone counter identifying the current routing state."""
        return self._epoch

    def add_epoch_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` after every epoch bump.

        Switch turns, failures and repairs are the only runtime events
        that bump the epoch, so state derived from the routing (hub
        loads, hence fabric power) can only change at these calls.
        """
        self._epoch_listeners.append(listener)

    def _bump_epoch(self) -> None:
        self._epoch += 1
        for listener in self._epoch_listeners:
            listener()

    # -- construction ----------------------------------------------------

    def add(self, node: FabricNode) -> FabricNode:
        if node.node_id in self.nodes:
            raise FabricError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        self._upstreams[node.node_id] = []
        self._downstreams[node.node_id] = []
        node._topology_listener = self._bump_epoch
        self._bump_epoch()
        return node

    def connect(self, child_id: str, parent_id: str) -> None:
        """Wire ``child``'s next upstream port to ``parent``."""
        child = self._require(child_id)
        parent = self._require(parent_id)
        if child.kind is NodeKind.HOST_PORT:
            raise FabricError("host ports are roots and have no upstream")
        if parent.kind in (NodeKind.DISK,):
            raise FabricError("disks are leaves and accept no downstream")
        limit = Switch.NUM_UPSTREAMS if child.kind is NodeKind.SWITCH else 1
        ups = self._upstreams[child_id]
        if len(ups) >= limit:
            raise FabricError(
                f"{child_id!r} already has {len(ups)} upstream(s); limit {limit}"
            )
        if isinstance(parent, Hub):
            if len(self._downstreams[parent_id]) >= parent.fan_in:
                raise FabricError(f"hub {parent_id!r} fan-in {parent.fan_in} exceeded")
        elif parent.kind in (NodeKind.HOST_PORT, NodeKind.SWITCH, NodeKind.BRIDGE):
            # Host ports, switches and bridges each have a single
            # downstream port.
            if self._downstreams[parent_id]:
                raise FabricError(f"{parent_id!r} downstream port already used")
        ups.append(parent_id)
        self._downstreams[parent_id].append(child_id)
        self._bump_epoch()

    def _require(self, node_id: str) -> FabricNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise FabricError(f"unknown node {node_id!r}")
        return node

    # -- accessors --------------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def node(self, node_id: str) -> FabricNode:
        return self._require(node_id)

    def upstreams(self, node_id: str) -> Tuple[str, ...]:
        return tuple(self._upstreams[node_id])

    def downstreams(self, node_id: str) -> Tuple[str, ...]:
        return tuple(self._downstreams[node_id])

    @property
    def disks(self) -> List[DiskNode]:
        return [n for n in self.nodes.values() if isinstance(n, DiskNode)]

    @property
    def host_ports(self) -> List[HostPort]:
        return [n for n in self.nodes.values() if isinstance(n, HostPort)]

    @property
    def hubs(self) -> List[Hub]:
        return [n for n in self.nodes.values() if isinstance(n, Hub)]

    @property
    def switches(self) -> List[Switch]:
        return [n for n in self.nodes.values() if isinstance(n, Switch)]

    @property
    def bridges(self) -> List[Bridge]:
        return [n for n in self.nodes.values() if isinstance(n, Bridge)]

    def hosts(self) -> List[str]:
        seen: List[str] = []
        for port in self.host_ports:
            if port.host_id not in seen:
                seen.append(port.host_id)
        return seen

    def ports_of_host(self, host_id: str) -> List[HostPort]:
        return [p for p in self.host_ports if p.host_id == host_id]

    # -- routing -----------------------------------------------------------

    def active_upstream(self, node_id: str) -> Optional[str]:
        """The currently selected upstream of ``node_id`` (or None)."""
        node = self._require(node_id)
        ups = self._upstreams[node_id]
        if not ups:
            return None
        if isinstance(node, Switch):
            return ups[node.state] if node.state < len(ups) else None
        return ups[0]

    def trace_up(self, disk_id: str, respect_failures: bool = True) -> List[str]:
        """Walk from ``disk_id`` up along the active switch states.

        Returns the node ids visited (starting with the disk).  The walk
        ends at a host port, at a failed component (when
        ``respect_failures``), or at a dead end.  Results are memoized
        per topology epoch; any switch turn, wiring change, failure or
        repair invalidates the cache.
        """
        return list(self.active_path(disk_id, respect_failures))

    def active_path(self, disk_id: str, respect_failures: bool = True) -> Tuple[str, ...]:
        """Epoch-cached :meth:`trace_up` returning a shared tuple.

        Hot-path variant for callers (the bandwidth allocator) that
        re-trace many disks per call: the returned tuple is owned by the
        cache and must not be mutated.
        """
        cache = self._trace_cache
        if self._trace_cache_epoch != self._epoch:
            cache.clear()
            self._trace_cache_epoch = self._epoch
        key = (disk_id, respect_failures)
        walk = cache.get(key)
        if walk is None:
            walk = tuple(self._trace_up_uncached(disk_id, respect_failures))
            cache[key] = walk
        return walk

    def _trace_up_uncached(self, disk_id: str, respect_failures: bool) -> List[str]:
        node = self._require(disk_id)
        visited = [disk_id]
        seen = {disk_id}
        if respect_failures and node.failed:
            return visited
        current = disk_id
        while True:
            nxt = self.active_upstream(current)
            if nxt is None:
                return visited
            if nxt in seen:
                raise FabricError(f"cycle detected through {nxt!r}")
            seen.add(nxt)
            visited.append(nxt)
            if respect_failures and self.nodes[nxt].failed:
                return visited
            if self.nodes[nxt].kind is NodeKind.HOST_PORT:
                return visited
            current = nxt

    def attached_port(self, disk_id: str, respect_failures: bool = True) -> Optional[str]:
        """Host port currently reachable from ``disk_id``, or None."""
        walk = self.active_path(disk_id, respect_failures)
        last = self.nodes[walk[-1]]
        if last.kind is NodeKind.HOST_PORT and not (respect_failures and last.failed):
            return last.node_id
        return None

    def attached_host(self, disk_id: str, respect_failures: bool = True) -> Optional[str]:
        """Host id currently reachable from ``disk_id``, or None."""
        port = self.attached_port(disk_id, respect_failures)
        if port is None:
            return None
        host_port = self.nodes[port]
        assert isinstance(host_port, HostPort)
        return host_port.host_id

    def paths(self, disk_id: str, respect_failures: bool = False) -> List[Path]:
        """All upward disk→host-port paths, enumerating switch branches."""
        self._require(disk_id)
        results: List[Path] = []

        def walk(current: str, nodes: List[str], settings: List[SwitchSetting]) -> None:
            node = self.nodes[current]
            if respect_failures and node.failed:
                return
            if node.kind is NodeKind.HOST_PORT:
                assert isinstance(node, HostPort)
                results.append(
                    Path(
                        disk_id=disk_id,
                        host_port_id=current,
                        host_id=node.host_id,
                        nodes=tuple(nodes),
                        settings=tuple(settings),
                    )
                )
                return
            ups = self._upstreams[current]
            if isinstance(node, Switch):
                for state, parent in enumerate(ups):
                    if parent in nodes:
                        raise FabricError(f"cycle detected through {parent!r}")
                    walk(
                        parent,
                        nodes + [parent],
                        settings + [SwitchSetting(current, state)],
                    )
            elif ups:
                parent = ups[0]
                if parent in nodes:
                    raise FabricError(f"cycle detected through {parent!r}")
                walk(parent, nodes + [parent], settings)

        walk(disk_id, [disk_id], [])
        return results

    def paths_to_host(
        self, disk_id: str, host_id: str, respect_failures: bool = False
    ) -> List[Path]:
        """Paths from ``disk_id`` to any port of ``host_id``."""
        return [
            p for p in self.paths(disk_id, respect_failures) if p.host_id == host_id
        ]

    def get_switch_settings(
        self, disk_id: str, host_id: str, respect_failures: bool = True
    ) -> Tuple[SwitchSetting, ...]:
        """The paper's GETSWITCH(): switch states wiring disk to host.

        When several paths exist, prefer the one needing the fewest
        actual switch turns from the current configuration.  Raises
        :class:`FabricError` when the host is unreachable.
        """
        candidates = self.paths_to_host(disk_id, host_id, respect_failures)
        if not candidates:
            raise FabricError(f"no path from {disk_id!r} to host {host_id!r}")

        def turns_needed(path: Path) -> int:
            return sum(
                1
                for s in path.settings
                if self.nodes[s.switch_id].state != s.state  # type: ignore[union-attr]
            )

        best = min(candidates, key=turns_needed)
        return best.settings

    def reachable_hosts(self, disk_id: str, respect_failures: bool = True) -> List[str]:
        """Hosts reachable from ``disk_id`` under some switch setting."""
        seen: List[str] = []
        for path in self.paths(disk_id, respect_failures):
            if path.host_id not in seen:
                seen.append(path.host_id)
        return seen

    def apply_settings(self, settings: Iterable[SwitchSetting]) -> None:
        """Turn each switch in ``settings`` to its required state."""
        for setting in settings:
            switch = self._require(setting.switch_id)
            if not isinstance(switch, Switch):
                raise FabricError(f"{setting.switch_id!r} is not a switch")
            if switch.state != setting.state:
                switch.turn(setting.state)

    def attachment_map(self, respect_failures: bool = True) -> Dict[str, Optional[str]]:
        """disk id -> currently attached host id (or None)."""
        return {
            d.node_id: self.attached_host(d.node_id, respect_failures)
            for d in self.disks
        }

    def subtree_nodes(self, root_port_id: str) -> List[str]:
        """Nodes currently routed to ``root_port_id`` (active states only)."""
        members: List[str] = []
        for disk in self.disks:
            walk = self.trace_up(disk.node_id, respect_failures=False)
            if walk and walk[-1] == root_port_id:
                for node_id in walk[:-1]:
                    if node_id not in members:
                        members.append(node_id)
        return members

    def hub_depth(self, disk_id: str) -> int:
        """Maximum number of hubs on any path from ``disk_id`` to a root."""
        return max(
            (sum(1 for n in p.nodes if self.nodes[n].kind is NodeKind.HUB) for p in self.paths(disk_id)),
            default=0,
        )
