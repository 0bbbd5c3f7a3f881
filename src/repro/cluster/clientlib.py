"""The UStore ClientLib (§IV-D): storage management for upper layers.

Provides the paper's client-side API: apply for new storage space,
mount allocated storage, simple directory lookup (space → host IP), and
status-change notifications.  Mounted storage behaves like a local
block device; when a failover moves the backing disk to another host,
the ClientLib retrieves the new location from the Master and remounts
automatically — the application only observes a temporarily slow I/O.

The ClientLib finds the Master by reading ``MASTER_POINTER`` from the
coordination cluster, and it holds no coordination session to do so.
This departs from ZooKeeper, where every read runs inside a session,
because in this model a read needs none, and a session protects only
what a client owns there (ephemeral nodes and watches), which a
ClientLib does not have.  So a mounted ClientLib sends nothing while it
is idle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.cluster.namespace import MASTER_POINTER
from repro.coord.client import CoordSession
from repro.net.iscsi import IscsiInitiator, IscsiSession, SessionError
from repro.net.network import Network
from repro.net.rpc import RemoteError, RpcTimeout
from repro.obs.trace import NULL_TRACE, TraceContext, TraceScope
from repro.sim import Event, Simulator

__all__ = ["ClientLib", "MountedSpace", "StorageUnavailableError"]


class StorageUnavailableError(Exception):
    """Remount attempts exhausted; the space is not currently servable."""


@dataclass
class IoStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    remounts: int = 0
    errors_seen: int = 0


class MountedSpace:
    """A mounted UStore space: a remotely attached block device."""

    def __init__(self, client: "ClientLib", space_id: str, session: IscsiSession):
        self.client = client
        self.space_id = space_id
        self.session = session
        self.stats = IoStats()

    @property
    def current_host(self) -> str:
        return self.session.host_address

    def read(
        self, offset: int, size: int, trace: TraceContext = NULL_TRACE
    ) -> Generator[Event, None, dict]:
        result = yield from self._retrying(
            lambda scope: self.session.read(offset, size, scope), trace
        )
        self.stats.reads += 1
        self.stats.bytes_read += size
        return result

    def write(
        self, offset: int, size: int, trace: TraceContext = NULL_TRACE
    ) -> Generator[Event, None, dict]:
        result = yield from self._retrying(
            lambda scope: self.session.write(offset, size, scope), trace
        )
        self.stats.writes += 1
        self.stats.bytes_written += size
        return result

    def _retrying(
        self,
        attempt: Callable[[TraceScope], Generator[Event, None, dict]],
        trace: TraceContext,
    ) -> Generator[Event, None, dict]:
        """Run ``attempt`` on the current session; after each
        :class:`SessionError` remount and retry, up to
        ``max_remount_attempts`` times."""
        attempts = 0
        while True:
            # Fresh epoch-stamped scope per attempt: if this attempt is
            # abandoned (timeout -> remount), invalidate_scopes makes
            # any stale server-side holder of it inert.
            scope = trace.scope()
            try:
                result = yield from attempt(scope)
                return result
            except SessionError as exc:
                trace.invalidate_scopes()
                if trace.enabled:
                    trace.event(
                        "iscsi.session_error",
                        host=self.session.host_address,
                        attempt=attempts + 1,
                        error=str(exc),
                    )
                self.stats.errors_seen += 1
                attempts += 1
                if attempts > self.client.max_remount_attempts:
                    trace.phase("failover")
                    raise StorageUnavailableError(self.space_id)
                yield from self._remount(trace)

    def _remount(
        self, trace: TraceContext = NULL_TRACE
    ) -> Generator[Event, None, None]:
        """§IV-D: fetch the new host from the Master and remount."""
        self.client._notify(self.space_id, "remounting")
        deadline = self.client.sim.now + self.client.remount_deadline
        while self.client.sim.now < deadline:
            try:
                info = yield from self.client._lookup(self.space_id)
                session = yield from self.client.initiator.login(
                    info["address"], info["target"]
                )
                self.session = session
                self.stats.remounts += 1
                self.client._notify(self.space_id, "remounted")
                if trace.enabled:
                    trace.event("clientlib.remounted", host=session.host_address)
                # Everything since the doomed attempt's last boundary —
                # the dead time plus the remount conversation — is
                # failover cost.
                trace.phase("failover")
                return
            except (SessionError, RpcTimeout, RemoteError):
                yield self.client.sim.timeout(self.client.remount_retry_interval)
        self.client._notify(self.space_id, "unavailable")
        trace.phase("failover")
        raise StorageUnavailableError(self.space_id)


class ClientLib:
    """Client-side library for allocating and mounting UStore storage."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        coord_servers: List[str],
        service: str = "default",
        max_remount_attempts: int = 3,
        remount_retry_interval: float = 0.5,
        remount_deadline: float = 60.0,
        io_timeout: float = 3.0,
    ):
        self.sim = sim
        self.network = network
        self.address = address
        self.service = service
        self.max_remount_attempts = max_remount_attempts
        self.remount_retry_interval = remount_retry_interval
        self.remount_deadline = remount_deadline
        self.initiator = IscsiInitiator(sim, network, address, io_timeout=io_timeout)
        # Used for reads only; never started (see the module docstring).
        self.coord = CoordSession(sim, network, f"{address}.coord", coord_servers)
        self._master_address: Optional[str] = None
        self._callbacks: List[Callable[[str, str], None]] = []
        self.mounted: Dict[str, MountedSpace] = {}

    # -- notifications (§IV-D) ------------------------------------------------

    def on_status_change(self, callback: Callable[[str, str], None]) -> None:
        """Register ``callback(space_id, event)`` for status changes."""
        self._callbacks.append(callback)

    def _notify(self, space_id: str, event: str) -> None:
        for callback in self._callbacks:
            callback(space_id, event)

    # -- master discovery -------------------------------------------------------

    def _discover_master(self, force: bool = False) -> Generator[Event, None, str]:
        if self._master_address is None or force:
            self._master_address = yield from self.coord.get_data(MASTER_POINTER)
        return self._master_address

    def _master_call(self, method: str, *args: Any) -> Generator[Event, None, Any]:
        last: Optional[Exception] = None
        for attempt in range(4):
            try:
                master = yield from self._discover_master(force=attempt > 0)
            except (RpcTimeout, RemoteError) as exc:
                last = exc
                yield self.sim.timeout(0.5)
                continue
            try:
                result = yield from self.initiator.rpc.call(
                    master, method, *args, timeout=10.0
                )
                return result
            except (RpcTimeout, RemoteError) as exc:
                message = str(exc)
                if "standby" not in message and not isinstance(exc, RpcTimeout):
                    raise
                last = exc
                yield self.sim.timeout(0.5)
        raise last or RpcTimeout(method)

    def _lookup(self, space_id: str) -> Generator[Event, None, dict]:
        result = yield from self._master_call("master.lookup", space_id)
        return result

    # -- public API --------------------------------------------------------------

    def allocate(
        self,
        length: int,
        locality_hint: Optional[str] = None,
        exclude_disks: Optional[List[str]] = None,
    ) -> Generator[Event, None, dict]:
        """Apply for new storage space; returns the placement info.

        ``exclude_disks`` lets replication-aware services (like the HDFS
        overlay) force their replicas onto distinct spindles.
        """
        result = yield from self._master_call(
            "master.allocate", length, self.service, locality_hint, exclude_disks
        )
        return result

    def mount(self, space_id: str) -> Generator[Event, None, MountedSpace]:
        """Mount an allocated space as a remotely attached block device."""
        info = yield from self._lookup(space_id)
        session = yield from self.initiator.login(info["address"], info["target"])
        space = MountedSpace(self, space_id, session)
        self.mounted[space_id] = space
        return space

    def unmount(self, space_id: str) -> Generator[Event, None, None]:
        space = self.mounted.pop(space_id, None)
        if space is not None:
            yield from space.session.logout()

    def release(self, space_id: str) -> Generator[Event, None, bool]:
        """Return the space to the pool (reclaiming, §IV-A)."""
        yield from self.unmount(space_id)
        result = yield from self._master_call("master.release", space_id)
        return result

    def lookup_host(self, space_id: str) -> Generator[Event, None, str]:
        """Directory lookup: the host IP currently serving a space."""
        info = yield from self._lookup(space_id)
        return info["address"]

    def set_disk_power(self, space_id: str, action: str) -> Generator[Event, None, Any]:
        """Spin the backing disk up/down (requires exclusive ownership)."""
        result = yield from self._master_call(
            "master.set_disk_power", space_id, action, self.service
        )
        return result
