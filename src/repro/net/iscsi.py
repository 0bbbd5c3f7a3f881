"""A simulated iSCSI-like block protocol (§IV-B, §IV-D).

EndPoints expose allocated storage spaces as *targets*; clients log in
through an :class:`IscsiInitiator` and issue block I/O that travels the
simulated network, is served by the backing simulated disk, and returns
with realistic transfer delays.  A dead host or a removed target turns
into :class:`SessionError` at the initiator — which is what triggers
the ClientLib's automatic remount (§IV-D).

The wire carries three methods: ``iscsi.login``, ``iscsi.logout`` and
``iscsi.io``, one contiguous read or write.  There is no vectored read:
the gateway's coalesced pass is one ``iscsi.io`` read of the envelope
that covers its members' extents.

An I/O for a spun-down or spinning-up disk is a delay, not a failure:
the target queues it at the disk and sends the initiator one NOT READY
notice naming the instant the disk will be ready, and the initiator
waits until then plus its I/O timeout instead of giving up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from repro.disk.device import IoRequest, SimulatedDisk
from repro.net.network import Network
from repro.net.rpc import NotReady, RemoteError, RpcClient, RpcServer, RpcTimeout
from repro.obs.trace import NULL_SCOPE, TraceScope
from repro.sim import Event, Simulator
from repro.units import Bytes, SimSeconds

__all__ = [
    "IscsiInitiator",
    "IscsiSession",
    "IscsiTargetServer",
    "SessionError",
    "StorageVolume",
]


class SessionError(Exception):
    """The session is unusable (host down, target gone, disk moved)."""


@dataclass
class StorageVolume:
    """A slice of one disk exposed as a block target.

    Covers the paper's three allocation granularities: a whole disk, a
    partition, or a big file within a disk — all are (disk, offset,
    length) ranges at this level.
    """

    volume_id: str
    disk: SimulatedDisk
    offset: Bytes = Bytes(0)
    length: Optional[Bytes] = None

    def __post_init__(self) -> None:
        if self.length is None:
            self.length = self.disk.spec.capacity_bytes - self.offset
        if self.offset < 0 or self.length <= 0:
            raise ValueError("invalid volume geometry")

    def submit(
        self, offset: Bytes, size: Bytes, is_read: bool, scope: TraceScope = NULL_SCOPE
    ) -> Event:
        """Serve one I/O as a process of its own; see :meth:`serve`."""
        return self.disk.submit(self._request(offset, size, is_read), scope)

    def serve(
        self, offset: Bytes, size: Bytes, is_read: bool, scope: TraceScope = NULL_SCOPE
    ) -> Generator[Event, None, float]:
        """Serve one I/O inside the caller's process (``yield from``);
        returns the service time."""
        return self.disk.serve(self._request(offset, size, is_read), scope)

    def _request(self, offset: Bytes, size: Bytes, is_read: bool) -> IoRequest:
        if offset < 0 or offset + size > self.length:
            raise ValueError(
                f"I/O beyond volume {self.volume_id!r}: "
                f"offset={offset} size={size} length={self.length}"
            )
        return IoRequest(offset=self.offset + offset, size=size, is_read=is_read)


class IscsiTargetServer:
    """The target side, embedded in a host's EndPoint."""

    def __init__(self, sim: Simulator, network: Network, address: str):
        self.sim = sim
        self.address = address
        self.rpc = RpcServer(sim, network, address)
        self._volumes: Dict[str, StorageVolume] = {}
        self._sessions: Dict[int, str] = {}  # session id -> target name
        self._session_ids = itertools.count(1)
        self.logins = 0
        self.ios = 0
        self.bytes = 0
        sim.metrics.publish("iscsi", self, ("logins", "ios", "bytes"))
        self.rpc.register("iscsi.login", self._login)
        self.rpc.register("iscsi.logout", self._logout)
        self.rpc.register("iscsi.io", self._io, not_ready=True)

    # -- target management (called by the EndPoint) -------------------------

    def expose(self, target_name: str, volume: StorageVolume) -> None:
        if target_name in self._volumes:
            raise ValueError(f"target {target_name!r} already exposed")
        self._volumes[target_name] = volume

    def withdraw(self, target_name: str) -> None:
        self._volumes.pop(target_name, None)
        stale = [s for s, t in self._sessions.items() if t == target_name]
        for session_id in stale:
            del self._sessions[session_id]

    def exposed_targets(self) -> list:
        return sorted(self._volumes)

    # -- RPC handlers ---------------------------------------------------------

    def _login(self, target_name: str) -> int:
        if target_name not in self._volumes:
            raise SessionError(f"no such target {target_name!r}")
        session_id = next(self._session_ids)
        self._sessions[session_id] = target_name
        self.logins += 1
        return session_id

    def _logout(self, session_id: int) -> bool:
        return self._sessions.pop(session_id, None) is not None

    def _io(
        self,
        not_ready: NotReady,
        session_id: int,
        offset: Bytes,
        size: Bytes,
        is_read: bool,
        trace_scope: TraceScope = NULL_SCOPE,
    ):
        """Serve one contiguous read or write on ``session_id``'s volume.

        If its disk must spin up first, the initiator is told when it
        will be ready, and the I/O queues at the disk as usual.
        """
        target_name = self._sessions.get(session_id)
        if target_name is None:
            raise SessionError(f"stale session {session_id}")
        volume = self._volumes.get(target_name)
        if volume is None:
            raise SessionError(f"target {target_name!r} withdrawn")
        ready_at = volume.disk.ready_at()
        if ready_at is not None:
            not_ready(ready_at)
        service_time = yield from volume.serve(offset, size, is_read, trace_scope)
        self.ios += 1
        self.bytes += size
        return {"ok": True, "service_time": service_time}


class IscsiSession:
    """An initiator-side logged-in session."""

    def __init__(self, initiator: "IscsiInitiator", host_address: str, target_name: str, session_id: int):
        self.initiator = initiator
        self.host_address = host_address
        self.target_name = target_name
        self.session_id = session_id
        self.connected = True

    def read(
        self, offset: Bytes, size: Bytes, scope: TraceScope = NULL_SCOPE
    ) -> Generator[Event, None, dict]:
        return self._call((offset, size, True), 256, 256 + size, scope)

    def write(
        self, offset: Bytes, size: Bytes, scope: TraceScope = NULL_SCOPE
    ) -> Generator[Event, None, dict]:
        return self._call((offset, size, False), 256 + size, 256, scope)

    def _call(
        self,
        args: Tuple[Any, ...],
        request_size: int,
        response_size: int,
        scope: TraceScope,
    ) -> Generator[Event, None, dict]:
        """One ``iscsi.io`` request on this session; any RPC failure
        closes the session and surfaces as :class:`SessionError`."""
        if not self.connected:
            raise SessionError("session closed")
        if scope.enabled:
            # The simulated RPC passes arguments by reference in-process,
            # so the scope rides the request to the target server as its
            # last argument.  The untraced hot path ships nothing.
            args = (*args, scope)
        try:
            result = yield from self.initiator.rpc.call(
                self.host_address,
                "iscsi.io",
                self.session_id,
                *args,
                timeout=self.initiator.io_timeout,
                request_size=request_size,
                response_size=response_size,
            )
        except (RpcTimeout, RemoteError) as exc:
            self.connected = False
            self.initiator.session_errors += 1
            raise SessionError(str(exc)) from exc
        # Response travel back from the endpoint (the disk layer closed
        # its last boundary when the media transfer ended).
        scope.phase("network")
        return result

    def logout(self) -> Generator[Event, None, None]:
        if not self.connected:
            return
        self.connected = False
        try:
            yield from self.initiator.rpc.call(
                self.host_address, "iscsi.logout", self.session_id, timeout=2.0
            )
        except (RpcTimeout, RemoteError):
            pass


class IscsiInitiator:
    """The client side: logs in to targets and issues block I/O."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        io_timeout: SimSeconds = SimSeconds(10.0),
    ):
        self.sim = sim
        self.address = address
        self.io_timeout = io_timeout
        self.rpc = RpcClient(sim, network, address)
        self.session_errors = 0
        sim.metrics.publish("iscsi", self, ("session_errors",))

    def login(
        self, host_address: str, target_name: str, timeout: SimSeconds = SimSeconds(3.0)
    ) -> Generator[Event, None, IscsiSession]:
        try:
            session_id = yield from self.rpc.call(
                host_address, "iscsi.login", target_name, timeout=timeout
            )
        except (RpcTimeout, RemoteError) as exc:
            raise SessionError(str(exc)) from exc
        return IscsiSession(self, host_address, target_name, session_id)
