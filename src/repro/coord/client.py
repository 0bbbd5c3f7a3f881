"""Client sessions against the coordination cluster.

A :class:`CoordSession` mirrors the ZooKeeper client the prototype's
hosts use: it discovers the current leader, keeps its session alive
with pings (so its ephemeral znodes survive), registers node watches,
and transparently retries operations across leader failovers.  A watch
lives on the leader that accepted it and is lost with that leader, and
a watch event can be lost on the way.  So, as a ZooKeeper client does
on reconnect, the session re-registers its outstanding watches once a
ping is answered by a leader of another epoch, or once a ping or an
event shows that an event of this leader never arrived, and fires at
once each watch whose node changed meanwhile.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.coord.service import SESSION_TIMEOUT
from repro.net.network import Message, Network
from repro.net.rpc import Done, RemoteError, RpcClient, RpcTimeout, settle
from repro.sim import Deadline, Event, Simulator

__all__ = ["CoordSession", "SessionExpiredError"]

#: Pause between rounds over the candidate servers, giving an election
#: time to finish.
_ROUND_BACKOFF = 0.25
#: ``_Watch.epoch`` of a watch to register again: its re-registration
#: failed, or an event of its leader never arrived.  No leader has
#: epoch 0 (the first election makes epoch 1), so the next acknowledged
#: ping sends it.
_RESEND = 0
#: Keepalive period: ZooKeeper's client pings after ``readTimeout / 2``
#: of idleness, and its read timeout is two thirds of the session
#: timeout.
_PING_INTERVAL = SESSION_TIMEOUT / 3


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
    ):
        if not servers:
            raise ValueError("need at least one coordination server")
        self.sim = sim
        self.network = network
        self.address = address
        self.servers = list(servers)
        self.session_id = f"session:{address}"
        self.session_timeout = SESSION_TIMEOUT
        self.rpc = RpcClient(sim, network, address)
        self._leader_guess: Optional[str] = servers[0]
        self._watches: Dict[str, _Watch] = {}
        # Watch events of the leader of ``_events_epoch``: every one up to
        # number ``_events_heard`` has arrived or been made up for.
        self._events_epoch = 0
        self._events_heard = 0
        self.started = False
        self.expired = False
        # Client-side lease: the cluster cannot expire this session
        # before ``session_timeout`` after the send time of its last
        # acknowledged ping (or of create_session).
        self._lease_end = float("-inf")
        self._lease = Deadline(sim, self._check_lease)
        self._on_lapse: Optional[Callable[[], None]] = None
        self._on_expiry: Optional[Callable[[], None]] = None
        network.node(address).on("watch_event", self._on_watch_event)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> Generator[Event, None, None]:
        """Create the session on the cluster and start keepalives."""
        waiter = self.sim.event()
        _LeaderCall(
            self,
            "coord.client_op",
            (["create_session", self.session_id, self.session_timeout],),
            settle(waiter),
            keepalive=True,
        )
        yield waiter
        self.started = True
        self.sim.defer(_PING_INTERVAL, self._ping)

    def _ping(self) -> None:
        """One keepalive; the next is scheduled after its reply or failure."""
        if self.expired:
            return
        _LeaderCall(
            self,
            "coord.ping_session",
            (self.session_id, self.address),
            self._pinged,
            retries=2,
            keepalive=True,
        )

    def _pinged(self, reply: Optional[Tuple[int, int]], error: Optional[Exception]) -> None:
        if isinstance(error, SessionExpiredError):
            # Ephemerals are gone; the owner must start anew.
            callback, self._on_expiry = self._on_expiry, None
            if callback is not None:
                callback()
            return
        if reply is not None:
            self._heard(*reply)
        # On failure keep trying; the expirer decides when we are gone.
        self.sim.defer(_PING_INTERVAL, self._ping)

    def on_expiry(self, callback: Optional[Callable[[], None]]) -> None:
        """Call ``callback()`` once when a ping learns that the cluster
        expired this session (``None`` stops).

        A node that is down hears nothing, so an owner that was dark
        longer than the session timeout learns of the expiry from its
        first ping after it comes back."""
        self._on_expiry = callback

    # -- lease ---------------------------------------------------------------

    def on_lapse(self, callback: Optional[Callable[[], None]]) -> None:
        """Call ``callback()`` once when the lease lapses (``None`` stops).

        The lease is armed only while someone listens.  A lapse comes no
        later than the cluster could expire the session, so an owner that
        steps down on it has let go before a rival can take over.
        """
        self._on_lapse = callback
        if callback is None:
            self._lease.disarm()
        else:
            self._lease.arm(max(self._lease_end, self.sim.now))

    def holds_lease(self) -> bool:
        """True until ``session_timeout`` after the last acknowledged ping."""
        return self.sim.now < self._lease_end

    def _renew(self, sent_at: float) -> None:
        self._lease_end = sent_at + self.session_timeout
        if self._on_lapse is not None:
            self._lease.arm(self._lease_end)

    def _check_lease(self) -> None:
        if self.sim.now < self._lease_end:
            self._lease.arm(self._lease_end)  # renewed since it was armed
            return
        callback, self._on_lapse = self._on_lapse, None
        if callback is not None:
            callback()

    # -- leader discovery -----------------------------------------------------

    def _candidates(self) -> List[str]:
        ordered = []
        if self._leader_guess:
            ordered.append(self._leader_guess)
        ordered.extend(s for s in self.servers if s not in ordered)
        return ordered

    def leader_request(self, method: str, args: Tuple[Any, ...], done: Done) -> None:
        """Call ``method`` on the leader; ``done(result, error)`` reports.

        Follows ``NotLeader`` hints, tries every server per round and
        backs off between rounds; "unknown session" marks the session
        expired and reports :class:`SessionExpiredError`.
        """
        _LeaderCall(self, method, args, done)

    def _leader_call(
        self, method: str, *args: Any, retries: int = 6, timeout: float = 1.0
    ) -> Generator[Event, None, Any]:
        waiter = self.sim.event()
        _LeaderCall(self, method, args, settle(waiter), retries, timeout)
        result = yield waiter
        return result

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
        self, path: str, callback: Callable[[str, str], None]
    ) -> Generator[Event, None, Optional[int]]:
        """One-shot node watch; ``callback(path, event_type)`` fires when
        the node at ``path`` is created, changed or deleted.

        Returns the node's version now, ``None`` while it does not exist.
        The watch lives on the leader that accepts it.  After a leader
        change, or once an event of its leader is lost, the session
        registers it again, and fires it at once if the version it
        observes then has changed.  If the registration fails,
        ``callback`` is dropped and the error raised.
        """
        watch = self._watches.get(path)
        if watch is None:
            watch = self._watches[path] = _Watch()
        watch.callbacks.append(callback)
        try:
            epoch, seen = yield from self._leader_call("coord.watch", self.address, path)
        except (RpcTimeout, RemoteError, SessionExpiredError):
            watch.callbacks.remove(callback)
            if not watch.callbacks and self._watches.get(path) is watch:
                del self._watches[path]
            raise
        watch.epoch, watch.seen = epoch, seen
        return seen

    def _on_watch_event(self, message: Message) -> None:
        payload = message.payload
        path = payload["path"]
        watch = self._watches.pop(path, None)
        if watch is not None:
            for callback in watch.callbacks:
                callback(path, payload["type"])
        seq = payload["seq"]
        self._heard(payload["epoch"], seq - 1)
        self._events_heard = max(self._events_heard, seq)

    def _heard(self, epoch: int, sent: int) -> None:
        """The leader of ``epoch`` has sent ``sent`` watch events before
        this point: if one has not arrived, register that leader's
        watches again; then register those another leader holds."""
        heard = self._events_heard if self._events_epoch == epoch else 0
        if sent > heard:
            for watch in self._watches.values():
                if watch.epoch == epoch:
                    watch.epoch = _RESEND
        self._events_epoch, self._events_heard = epoch, max(sent, heard)
        self._rewatch(epoch)

    def _rewatch(self, epoch: int) -> None:
        """Register on the leader of ``epoch`` every watch it does not
        hold (ZooKeeper's SetWatches on reconnect)."""
        for path, watch in list(self._watches.items()):
            if watch.epoch is None or watch.epoch == epoch:
                continue  # still being registered, or held by this leader
            # Marked as held here while the call is out, so the next ping
            # does not send it again; a failure marks it _RESEND.
            watch.epoch = epoch
            _LeaderCall(
                self,
                "coord.watch",
                (self.address, path),
                partial(self._rewatched, path, watch),
            )

    def _rewatched(
        self, path: str, watch: "_Watch", result: Any, error: Optional[Exception]
    ) -> None:
        if self._watches.get(path) is not watch:
            return  # it fired meanwhile
        if error is not None:
            watch.epoch = _RESEND
            return
        watch.epoch, seen = result
        if seen == watch.seen:
            return
        del self._watches[path]
        event_type = _change(watch.seen, seen)
        for callback in watch.callbacks:
            callback(path, event_type)


class _Watch:
    """One outstanding watch: its callbacks, the node version the
    session last saw through it, and the epoch of the leader that holds
    it (``None`` until its first registration is answered)."""

    __slots__ = ("callbacks", "seen", "epoch")

    def __init__(self) -> None:
        self.callbacks: List[Callable[[str, str], None]] = []
        self.seen: Optional[int] = None
        self.epoch: Optional[int] = None


def _change(seen: Optional[int], now: Optional[int]) -> str:
    """The event a watch fires for a change it missed: version ``seen``
    to ``now`` (``None`` while the node does not exist)."""
    if now is None:
        return "deleted"
    if seen is None:
        return "created"
    return "changed"


class _LeaderCall:
    """One operation's walk over the candidate servers, round by round."""

    __slots__ = (
        "session", "method", "args", "done", "rounds_left", "timeout",
        "keepalive", "servers", "tried", "last_error", "sent_at",
    )

    def __init__(
        self,
        session: CoordSession,
        method: str,
        args: Tuple[Any, ...],
        done: Done,
        retries: int = 6,
        timeout: float = 1.0,
        keepalive: bool = False,
    ) -> None:
        self.session = session
        self.method = method
        self.args = args
        self.done = done
        self.rounds_left = retries
        self.timeout = timeout
        #: An acknowledged keepalive renews the session's lease from the
        #: send time of the attempt that was answered.
        self.keepalive = keepalive
        self.servers: List[str] = []
        self.tried = 0
        self.last_error: Optional[Exception] = None
        self._round()

    def _round(self) -> None:
        if self.rounds_left == 0:
            self.done(None, self.last_error or RpcTimeout(f"no leader found for {self.method}"))
            return
        self.rounds_left -= 1
        self.servers = self.session._candidates()
        self.tried = 0
        self._next()

    def _next(self) -> None:
        session = self.session
        if self.tried == len(self.servers):
            session.sim.defer(_ROUND_BACKOFF, self._round)
            return
        server = self.servers[self.tried]
        self.tried += 1
        self.sent_at = session.sim.now
        session.rpc.invoke(server, self.method, self.args, self._reply, timeout=self.timeout)

    def _reply(self, result: Any, error: Optional[Exception]) -> None:
        session = self.session
        if error is None:
            session._leader_guess = self.servers[self.tried - 1]
            if self.keepalive:
                session._renew(self.sent_at)
            self.done(result, None)
            return
        if isinstance(error, RpcTimeout):
            self.last_error = error
            self._next()
            return
        message = str(error)
        if "NotLeader:" in message:
            hint = message.rsplit("NotLeader:", 1)[1].strip()
            session._leader_guess = hint if hint in session.servers else None
            self.last_error = error
            self._next()
            return
        if "unknown session" in message:
            session.expired = True
            expired = SessionExpiredError(session.session_id)
            expired.__cause__ = error
            self.done(None, expired)
            return
        self.done(None, error)
