"""The UStore Master (§IV-A): centralized control and scheduling.

Master candidates run in active-standby mode, elected through the
coordination service (ephemeral sequential znodes, as the prototype
does with ZooKeeper, §V-B).  The active master:

* maintains SysConf (static), SysStat (in-memory, rebuilt by
  interrogating the hosts) and StorAlloc (persisted synchronously in
  the coordination namespace);
* allocates storage spaces, applying the paper's two placement rules —
  same-service disk affinity and client locality;
* monitors host heartbeats and, on an extended silence, declares the
  host crashed and moves its disks to healthy hosts through the
  Controller, re-exposing the affected targets (§IV-E).

Every command that changes hardware or exposure (``controller.execute``,
``endpoint.expose``, ``endpoint.withdraw``, ``endpoint.set_disk_power``)
carries the Master's fencing token, the sequence number of the election
node it activated with; Controllers and EndPoints refuse a token older
than the newest they have seen (:class:`~repro.cluster.metadata.Fence`).
A failover stops at its next step once its Master has stepped down; the
spaces of disks it has already moved are still exposed, since no later
Master finds those disks orphaned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.metadata import DiskStatus, HostStatus, SpaceRecord, SysConf, SysStat
from repro.cluster.namespace import (
    MASTER_POINTER,
    STORALLOC_ROOT,
    format_space_id,
    parse_space_id,
    space_znode_path,
    target_name,
)
from repro.coord.client import CoordSession
from repro.net.network import Network
from repro.net.rpc import RemoteError, RpcClient, RpcServer, RpcTimeout
from repro.obs.trace import NULL_TRACE
from repro.sim import Deadline, Event, Grid, Simulator

__all__ = ["AllocationError", "Master", "MasterConfig"]

ELECTION_ROOT = "/ustore/master-election"
#: Seconds between the active Master's host-failure checks (its grid
#: starts at activation).
FAILURE_CHECK_INTERVAL = 0.5
#: Seconds a candidate waits before it reads the election again after a
#: failed read or activation, or after a step-down.
ELECTION_RETRY_PAUSE = 1.0
#: Bytes assumed for a disk missing from ``disk_capacities`` (3 TB).
DEFAULT_DISK_CAPACITY = 3 * 10**12
#: Host states the failure detector watches: a host that answered, and
#: one that did not answer the interrogation at activation.
_WATCHED = (HostStatus.ONLINE, HostStatus.SUSPECTED)


class AllocationError(Exception):
    """No disk satisfies an allocation request."""


class SteppedDown(Exception):
    """The Master stepped down before it sent a request."""


@dataclass(frozen=True)
class MasterConfig:
    # Hosts are suspected after this much heartbeat silence, §IV-E.
    heartbeat_timeout: float = 2.0


class Master:
    """One master candidate; becomes active if it wins the election."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        coord_servers: List[str],
        sysconf: SysConf,
        disk_capacities: Optional[Dict[str, int]] = None,
        config: MasterConfig = MasterConfig(),
    ):
        self.sim = sim
        self.network = network
        self.address = address
        self.sysconf = sysconf
        self.config = config
        self.disk_capacities = disk_capacities or {}
        self.sysstat = SysStat()
        self.records: Dict[str, SpaceRecord] = {}  # space_id -> record
        self._space_counters: Dict[str, int] = {}  # disk -> next index
        self.active = False
        # Fencing token: the sequence number of the election node this
        # Master last activated with.
        self.token = 0
        # What the election loop waits on: the active master's step-down,
        # or the standby's predecessor watch or session expiry.  A crash
        # ends either.  Replaced at each wait.
        self._wait = sim.event()
        self.alive = True
        self.failovers_completed = 0
        self.heartbeats = 0
        self.allocations = 0
        # Failure detection: one armed check on the grid of
        # FAILURE_CHECK_INTERVAL from activation (DESIGN.md §8); the
        # grid is replaced at each activation.
        self._detector = Deadline(sim, self._check_hosts)
        self._detector_grid = Grid(sim.now, FAILURE_CHECK_INTERVAL)
        sim.metrics.publish(
            "master", self, ("failovers_completed", "heartbeats", "allocations")
        )
        self._m_failover_seconds = sim.metrics.histogram("master.failover_seconds")

        self.coord = CoordSession(sim, network, f"{address}.coord", coord_servers)
        self.rpc = RpcServer(sim, network, address)
        self.rpc_client = RpcClient(sim, network, f"{address}.client")
        self.rpc.register("master.heartbeat", self._on_heartbeat)
        self.rpc.register("master.allocate", self._on_allocate)
        self.rpc.register("master.lookup", self._on_lookup)
        self.rpc.register("master.release", self._on_release)
        self.rpc.register("master.set_disk_power", self._on_set_disk_power)
        self.rpc.register("master.migrate_disk", self._on_migrate_disk)
        self.rpc.register("master.migrate_batch", self._on_migrate_batch)
        sim.process(self._candidate_loop())

    # -- lifecycle -------------------------------------------------------------

    def crash(self) -> None:
        self.alive = False
        self.coord.on_lapse(None)
        self._step_down()
        self.network.set_alive(self.address, False)
        self.network.set_alive(f"{self.address}.client", False)
        self.network.set_alive(self.coord.address, False)

    # -- election ----------------------------------------------------------------

    def _candidate_loop(self) -> Generator[Event, None, None]:
        generation = 0
        while True:
            yield from self._stand_for_election()
            if not self.alive:
                return
            # The cluster expired our session and our election node with
            # it: stand again on a fresh session, as a ZooKeeper client
            # does.  The old session's address is retired.
            generation += 1
            self.network.set_alive(self.coord.address, False)
            self.coord = CoordSession(
                self.sim,
                self.network,
                f"{self.address}.coord{generation}",
                self.coord.servers,
            )

    def _stand_for_election(self) -> Generator[Event, None, None]:
        yield from self.coord.start()
        self.coord.on_expiry(self._end_wait)
        for path in ("/ustore", ELECTION_ROOT, STORALLOC_ROOT):
            try:
                yield from self.coord.create(path)
            except RemoteError:
                pass
        my_node = yield from self.coord.create(
            f"{ELECTION_ROOT}/c-", data=self.address, ephemeral=True, sequential=True
        )
        my_name = my_node.rsplit("/", 1)[-1]
        while self.alive and not self.coord.expired:
            try:
                children = yield from self.coord.get_children(ELECTION_ROOT)
            except (RpcTimeout, RemoteError):
                yield self.sim.timeout(ELECTION_RETRY_PAUSE)
                continue
            ahead = [child for child in children if child < my_name]
            if ahead:
                # Standby: watch the node just ahead of ours (ZooKeeper's
                # leader-election recipe), so only its owner's going wakes
                # this candidate, and read the election again then.
                yield from self._await_predecessor(f"{ELECTION_ROOT}/{max(ahead)}")
                continue
            if my_name in children:
                # Never activate on a lapsed lease: it would step down at once.
                if not self.active and self.coord.holds_lease():
                    yield from self._activate(int(my_name.rsplit("-", 1)[1]))
                if self.active:
                    # While the lease holds, the lowest election node is
                    # ours: the lease lapses before the cluster can expire
                    # the session.  Wait for the step-down (lease lapse or
                    # crash).
                    yield self._wait
            yield self.sim.timeout(ELECTION_RETRY_PAUSE)

    def _await_predecessor(self, path: str) -> Generator[Event, None, None]:
        """Wait until the node at ``path`` changes or goes, this
        candidate's session expires or it crashes."""
        self._wait = self.sim.event()
        try:
            version = yield from self.coord.watch(path, lambda _path, _event: self._end_wait())
        except (RpcTimeout, RemoteError):
            yield self.sim.timeout(ELECTION_RETRY_PAUSE)
            return
        # A crash or an expiry that came before this wait did not end it.
        if version is not None and self.alive and not self.coord.expired:
            yield self._wait

    def _end_wait(self) -> None:
        if not self._wait.triggered:
            self._wait.succeed()

    def _activate(self, token: int) -> Generator[Event, None, None]:
        # Publish the active master's address.
        try:
            exists = yield from self.coord.exists(MASTER_POINTER)
            if exists:
                yield from self.coord.set_data(MASTER_POINTER, self.address)
            else:
                yield from self.coord.create(MASTER_POINTER, data=self.address)
        except (RpcTimeout, RemoteError):
            return
        # Load StorAlloc from the coordination namespace.
        yield from self._load_records()
        # Rebuild SysStat by interrogating every host (§IV-A: SysStat is
        # memory-only and reconstructible).
        yield from self._interrogate_hosts()
        self.active = True
        self.token = token
        self._wait = self.sim.event()
        self._detector_grid = Grid(self.sim.now, FAILURE_CHECK_INTERVAL)
        self._arm_detector()
        # Step down when the coordination session can no longer be
        # vouched for, before a rival can be elected (SNIPPETS.md 3).
        self.coord.on_lapse(self._step_down)

    def _step_down(self) -> None:
        self.active = False
        self._detector.disarm()
        self._end_wait()

    def _load_records(self) -> Generator[Event, None, None]:
        self.records.clear()
        self._space_counters.clear()
        try:
            children = yield from self.coord.get_children(STORALLOC_ROOT)
        except (RpcTimeout, RemoteError):
            return
        for child in children:
            try:
                data = yield from self.coord.get_data(f"{STORALLOC_ROOT}/{child}")
            except (RpcTimeout, RemoteError):
                continue
            record = SpaceRecord.from_dict(data)
            self.records[record.space_id] = record
            _, _, index = parse_space_id(record.space_id)
            current = self._space_counters.get(record.disk_id, 0)
            self._space_counters[record.disk_id] = max(current, index + 1)

    def _interrogate_hosts(self) -> Generator[Event, None, None]:
        for host_id, address in self.sysconf.host_addresses.items():
            try:
                view = yield from self.rpc_client.call(
                    address, "endpoint.usb_view", timeout=1.0
                )
            except (RpcTimeout, RemoteError):
                # Watched from now on, like a host that just sent its
                # last heartbeat, with the disks its Controller says it
                # holds: if it stays silent, they are failed over.
                self.sysstat.host_status[host_id] = HostStatus.SUSPECTED
                self.sysstat.last_heartbeat[host_id] = self.sim.now
                yield from self._ask_controller_for_disks(host_id)
                continue
            self.sysstat.host_status[host_id] = HostStatus.ONLINE
            self.sysstat.last_heartbeat[host_id] = self.sim.now
            for disk_id in view:
                self.sysstat.disk_to_host[disk_id] = host_id
                self.sysstat.disk_status[disk_id] = DiskStatus.ONLINE

    def _ask_controller_for_disks(self, host_id: str) -> Generator[Event, None, None]:
        """Record the disks the unit's Controller attaches to ``host_id``."""
        unit = self.sysconf.unit_of_host(host_id)
        for controller in self._controller_addresses(unit) if unit else []:
            try:
                disks = yield from self.rpc_client.call(
                    controller, "controller.attached_disks", host_id, timeout=1.0
                )
            except (RpcTimeout, RemoteError):
                continue
            for disk_id in disks:
                self.sysstat.disk_to_host[disk_id] = host_id
            return

    def _ask(
        self, address: str, method: str, *args: Any, timeout: float
    ) -> Generator[Event, None, Any]:
        """Call ``method`` on the active Master's behalf; raise
        :class:`SteppedDown` instead once it has stepped down."""
        if not self.active:
            raise SteppedDown(self.address)
        return (yield from self.rpc_client.call(address, method, *args, timeout=timeout))

    def _command(
        self, address: str, method: str, *args: Any, timeout: float
    ) -> Generator[Event, None, Any]:
        """:meth:`_ask` for a command that changes hardware or exposure:
        its first argument is this Master's fencing token."""
        return (yield from self._ask(address, method, self.token, *args, timeout=timeout))

    # -- RPC handlers ---------------------------------------------------------

    def _require_active(self) -> None:
        if not self.active:
            raise RuntimeError(f"master {self.address} is standby")

    def _on_heartbeat(self, payload: dict) -> bool:
        self._require_active()
        self.heartbeats += 1
        host_id = payload["host_id"]
        returning = self.sysstat.host_status.get(host_id) is not HostStatus.ONLINE
        self.sysstat.last_heartbeat[host_id] = self.sim.now
        self.sysstat.host_status[host_id] = HostStatus.ONLINE
        if returning:
            self._arm_detector()
        self.sysstat.host_load[host_id] = payload.get("exposed", 0)
        for disk_id, state in payload.get("disks", {}).items():
            self.sysstat.disk_to_host[disk_id] = host_id
            self.sysstat.disk_status[disk_id] = state
        return True

    def _capacity_of(self, disk_id: str) -> int:
        return self.disk_capacities.get(disk_id, DEFAULT_DISK_CAPACITY)

    def _allocated_on(self, disk_id: str) -> int:
        return sum(r.length for r in self.records.values() if r.disk_id == disk_id)

    def _next_offset(self, disk_id: str) -> int:
        end = 0
        for record in self.records.values():
            if record.disk_id == disk_id:
                end = max(end, record.offset + record.length)
        return end

    def _score_disk(self, disk_id: str, service: str, locality_hint: Optional[str]) -> tuple:
        """Smaller tuples are better: (affinity, locality, usage)."""
        services_on_disk = {
            r.service for r in self.records.values() if r.disk_id == disk_id
        }
        if not services_on_disk:
            affinity = 1  # empty disk: fine
        elif services_on_disk == {service}:
            affinity = 0  # paper rule 1: same-service disk preferred
        else:
            affinity = 2  # mixing services hinders power management
        host = self.sysstat.disk_to_host.get(disk_id)
        locality = 0 if (locality_hint and host == locality_hint) else 1
        return (affinity, locality, self._allocated_on(disk_id))

    def _on_allocate(
        self,
        length: int,
        service: str,
        locality_hint: Optional[str] = None,
        exclude_disks: Optional[List[str]] = None,
    ) -> dict:
        self._require_active()
        if length <= 0:
            raise AllocationError(f"invalid length {length}")
        excluded = set(exclude_disks or ())
        candidates = []
        for disk_id, host in self.sysstat.disk_to_host.items():
            if host is None or disk_id in excluded:
                continue
            if self.sysstat.host_status.get(host) is not HostStatus.ONLINE:
                continue
            if self.sysstat.disk_status.get(disk_id) is DiskStatus.FAILED:
                continue
            if self._next_offset(disk_id) + length > self._capacity_of(disk_id):
                continue
            candidates.append(disk_id)
        if not candidates:
            raise AllocationError("no disk with sufficient free space is online")
        best = min(
            candidates, key=lambda d: self._score_disk(d, service, locality_hint)
        )
        unit = self.sysconf.unit_of_disk(best) or "unit0"
        index = self._space_counters.get(best, 0)
        self._space_counters[best] = index + 1
        space_id = format_space_id(unit, best, index)
        record = SpaceRecord(
            space_id=space_id,
            unit_id=unit,
            disk_id=best,
            offset=self._next_offset(best),
            length=length,
            service=service,
        )

        # Reserve the extent now: an allocation that arrives while this
        # one commits must see it, or both get the same disk and offset.
        self.records[space_id] = record

        def commit() -> Generator[Event, None, dict]:
            # StorAlloc is persisted synchronously before the reply (§IV-A).
            try:
                yield from self.coord.create(space_znode_path(space_id), record.as_dict())
            except Exception:
                self.records.pop(space_id, None)
                raise
            self.allocations += 1
            host_id = self.sysstat.disk_to_host[best]
            address = self.sysconf.host_addresses[host_id]
            yield from self._command(
                address, "endpoint.expose", record.as_dict(), timeout=2.0
            )
            return {
                "space_id": space_id,
                "host_id": host_id,
                "address": address,
                "target": target_name(space_id),
            }

        return commit()

    def _on_lookup(self, space_id: str) -> dict:
        self._require_active()
        record = self.records.get(space_id)
        if record is None:
            raise KeyError(f"unknown space {space_id!r}")
        host_id = self.sysstat.disk_to_host.get(record.disk_id)
        if host_id is None:
            raise RuntimeError(f"disk {record.disk_id!r} is not attached anywhere")
        return {
            "space_id": space_id,
            "host_id": host_id,
            "address": self.sysconf.host_addresses[host_id],
            "target": target_name(space_id),
        }

    def _on_release(self, space_id: str):
        self._require_active()
        record = self.records.pop(space_id, None)
        if record is None:
            return False

        def commit() -> Generator[Event, None, bool]:
            try:
                yield from self.coord.delete(space_znode_path(space_id))
            except RemoteError:
                pass
            host_id = self.sysstat.disk_to_host.get(record.disk_id)
            if host_id is not None:
                address = self.sysconf.host_addresses[host_id]
                try:
                    yield from self._command(
                        address, "endpoint.withdraw", space_id, timeout=2.0
                    )
                except (RpcTimeout, RemoteError):
                    pass
            return True

        return commit()

    def _on_set_disk_power(self, space_id: str, action: str, service: str):
        """§IV-F: services control the power of disks they own."""
        self._require_active()
        record = self.records.get(space_id)
        if record is None:
            raise KeyError(f"unknown space {space_id!r}")
        if record.service != service:
            raise PermissionError(
                f"space {space_id!r} belongs to {record.service!r}, not {service!r}"
            )
        owners = {
            r.service for r in self.records.values() if r.disk_id == record.disk_id
        }
        if owners != {service}:
            raise PermissionError(
                f"disk {record.disk_id!r} is shared by {sorted(owners)}; "
                "power control requires exclusive ownership"
            )
        host_id = self.sysstat.disk_to_host.get(record.disk_id)
        if host_id is None:
            raise RuntimeError(f"disk {record.disk_id!r} is detached")
        address = self.sysconf.host_addresses[host_id]

        def forward() -> Generator[Event, None, Any]:
            result = yield from self._command(
                address, "endpoint.set_disk_power", record.disk_id, action, timeout=30.0
            )
            return result

        return forward()

    def _on_migrate_disk(self, disk_id: str, target_host: str):
        """Explicit topology scheduling (§IV-C): move one disk, keeping
        its exposed targets reachable at the new host."""
        self._require_active()
        if target_host not in self.sysconf.host_addresses:
            raise KeyError(f"unknown host {target_host!r}")
        return self._switch(
            [(disk_id, target_host)],
            40.0,
            lambda turned: {"disk_id": disk_id, "host": target_host, "turned": turned},
        )

    def _on_migrate_batch(self, pairs: List):
        """Batch topology command: several disks switched as one turn
        set and one enumeration batch (how Figure 6 switches N disks)."""
        self._require_active()
        pairs = [tuple(p) for p in pairs]
        if not pairs:
            raise ValueError("empty migration batch")
        return self._switch(
            pairs, 60.0, lambda turned: {"moved": len(pairs), "turned": turned}
        )

    def _switch(
        self,
        pairs: List[Tuple[str, str]],
        timeout: float,
        reply: Callable[[Any], dict],
    ) -> Generator[Event, None, dict]:
        """Send one switch command for ``pairs`` to the unit's controllers,
        failing over between them; the generator returns ``reply(turned)``."""
        unit = self.sysconf.unit_of_disk(pairs[0][0])
        if unit is None:
            raise KeyError(f"unknown disk {pairs[0][0]!r}")
        controllers = self._controller_addresses(unit)

        def run() -> Generator[Event, None, dict]:
            # Watchers re-expose each disk the moment it appears on its
            # new host, concurrently with the switch command.
            watcher = self.sim.process(self._re_expose({d: h for d, h in pairs}))
            last_error: Optional[Exception] = None
            for controller in controllers:
                try:
                    result = yield from self._command(
                        controller, "controller.execute", pairs, timeout=timeout
                    )
                    break
                except (RpcTimeout, RemoteError, SteppedDown) as exc:
                    last_error = exc
            else:
                if watcher.is_alive:
                    watcher.interrupt("command failed")
                watcher.defuse()
                raise last_error or RuntimeError("no controller reachable")
            yield watcher
            return reply(result["turned"])

        return run()

    # -- failure detection and failover (§IV-E) ---------------------------------

    def _silent_hosts(self, now: float) -> List[str]:
        """Watched hosts whose last heartbeat is too old at ``now``."""
        silent = []
        for host_id in self.sysconf.host_addresses:
            last = self.sysstat.last_heartbeat.get(host_id)
            if (
                self.sysstat.host_status.get(host_id) in _WATCHED
                and last is not None
                and now - last > self.config.heartbeat_timeout
            ):
                silent.append(host_id)
        return silent

    def _arm_detector(self) -> None:
        """Arm the check at the first tick on which some host is overdue."""
        watched = any(
            self.sysstat.host_status.get(h) in _WATCHED
            and h in self.sysstat.last_heartbeat
            for h in self.sysconf.host_addresses
        )
        if not (self.alive and self.active and watched):
            return
        self._detector.arm(
            self._detector_grid.first_after(
                self.sim.now, lambda tick: bool(self._silent_hosts(tick))
            )
        )

    def _check_hosts(self) -> None:
        if not (self.alive and self.active):
            return
        for host_id in self._silent_hosts(self.sim.now):
            self.sysstat.host_status[host_id] = HostStatus.CRASHED
            self.sim.process(self._fail_over_host(host_id))
        self._arm_detector()

    def _controller_addresses(self, unit: str) -> List[str]:
        return list(self.sysconf.controller_hosts.get(unit, []))

    def _fail_over_host(self, dead_host: str) -> Generator[Event, None, None]:
        unit = self.sysconf.unit_of_host(dead_host)
        if unit is None:
            return
        orphans = self.sysstat.disks_on_host(dead_host)
        if not orphans:
            return
        controllers = self._controller_addresses(unit)
        load: Dict[str, int] = {
            h: len(self.sysstat.disks_on_host(h))
            for h in self.sysstat.online_hosts()
            if h != dead_host
        }
        started = self.sim.now
        moved: Dict[str, str] = {}
        aborted = False
        tracer = self.sim.tracer
        ctx = (
            tracer.start(
                "master.failover",
                kind="system",
                host=dead_host,
                orphans=len(orphans),
            )
            if tracer.enabled
            else NULL_TRACE
        )
        for controller in controllers:
            try:
                yield from self._fail_over_via(controller, orphans, dict(load), moved)
            except SteppedDown:
                aborted = True
                break
            except (RpcTimeout, RemoteError):
                # Primary controller unreachable: try the backup.
                ctx.event("failover.controller_unreachable", controller=controller)
                continue
            if moved:
                ctx.event("failover.controller_ok", controller=controller)
                break
        ctx.phase("failover")
        # Exposed even after a step-down: a moved disk has left the dead
        # host, so no later Master finds it orphaned (DESIGN.md §8).
        yield from self._re_expose(moved)
        ctx.phase("network")
        if aborted:
            # The next active Master fails over what was not moved.
            ctx.finish("aborted")
        elif moved:
            self.failovers_completed += 1
            self._m_failover_seconds.observe(self.sim.now - started)
            ctx.annotate(moved=len(moved))
            ctx.finish("ok")
        else:
            ctx.finish("failed")

    def _fail_over_via(
        self,
        controller: str,
        orphans: List[str],
        load: Dict[str, int],
        moved: Dict[str, str],
    ) -> Generator[Event, None, None]:
        """Move ``orphans`` using one Controller, recording each disk's
        new host in ``moved`` as its switch completes.

        Strategy: first try a single batched command that sends every
        orphan to one host (the fast path behind the paper's ~5.8 s
        recovery — one switch turn set, one enumeration batch).  If the
        batch conflicts, fall back to per-disk greedy placement, trying
        each disk's reachable hosts from least- to most-loaded and
        skipping targets that Algorithm 1 reports as conflicting.
        """
        # Hosts every orphan can reach.
        common: Optional[set] = None
        reachable_of: Dict[str, List[str]] = {}
        for disk_id in orphans:
            reachable = yield from self._ask(
                controller, "controller.reachable_hosts", disk_id, timeout=2.0
            )
            options = [h for h in reachable if h in load]
            reachable_of[disk_id] = options
            common = set(options) if common is None else (common & set(options))
        for target in sorted(common or (), key=lambda h: (load[h], h)):
            try:
                yield from self._command(
                    controller,
                    "controller.execute",
                    [(d, target) for d in orphans],
                    timeout=40.0,
                )
            except RemoteError:
                continue  # conflict: try another absorber or fall back
            for disk_id in orphans:
                moved[disk_id] = target
            return
        # Fall back: place disks one at a time.
        for disk_id in orphans:
            for target in sorted(reachable_of[disk_id], key=lambda h: (load[h], h)):
                try:
                    yield from self._command(
                        controller, "controller.execute", [(disk_id, target)], timeout=40.0
                    )
                except RemoteError:
                    continue
                moved[disk_id] = target
                load[target] += 1
                break

    def _re_expose(self, moved: Dict[str, str]) -> Generator[Event, None, None]:
        """Re-expose every space living on a moved disk at its new home.

        Runs one watcher per disk, concurrently: each exposes the disk's
        targets the moment the new host's USB view reports the disk —
        so in a batched switch the first disks come back on the network
        while the later ones are still enumerating (what a udev-driven
        EndPoint does on real hardware, and why the paper's Figure 6
        part-2 delay does not grow with the batch size).
        """
        watchers = [
            self.sim.process(self._expose_when_visible(disk_id, new_host))
            for disk_id, new_host in moved.items()
        ]
        if watchers:
            yield self.sim.all_of(watchers)

    def _expose_when_visible(
        self, disk_id: str, new_host: str, deadline_seconds: float = 60.0
    ) -> Generator[Event, None, None]:
        address = self.sysconf.host_addresses[new_host]
        deadline = self.sim.now + deadline_seconds
        while self.sim.now < deadline:
            try:
                view = yield from self.rpc_client.call(
                    address, "endpoint.usb_view", timeout=1.0
                )
            except (RpcTimeout, RemoteError):
                view = []
            if disk_id in view:
                break
            yield self.sim.timeout(0.2)
        else:
            return
        self.sysstat.disk_to_host[disk_id] = new_host
        for record in self.records.values():
            if record.disk_id != disk_id:
                continue
            try:
                # Not _command: the disk has moved, so its spaces are
                # exposed even if this Master has stepped down since.
                yield from self.rpc_client.call(
                    address, "endpoint.expose", self.token, record.as_dict(), timeout=5.0
                )
            except (RpcTimeout, RemoteError):
                pass
