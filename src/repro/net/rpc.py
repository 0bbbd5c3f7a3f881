"""Request/response RPC over the simulated network.

Handlers may return either a plain value or a generator whose return
value becomes the response — so a handler can perform simulated disk
I/O before replying.  A plain handler answers inside the request's
delivery.  A generator handler is stepped in place by the kernel's
:func:`~repro.sim.process.step_in_place`, not run as a process: its
first step runs inside the delivery and each event it yields resumes
it, so the reply leaves from the event in which it returns.  Remote
exceptions are re-raised at the caller as :class:`RemoteError`; lost
messages surface as :class:`RpcTimeout`.

A handler registered with ``not_ready=True`` may also tell the caller,
before it replies, that the request is queued behind a device that is
becoming ready (see :data:`NotReady`).  The caller then waits for the
reply until the ready instant plus the call's timeout instead of
timing out; a silent server still times out at the first deadline.

Every client on one network files its call deadlines in the network's
:class:`RpcTimeouts`, one heap behind one armed
:class:`~repro.sim.Deadline` (the timer coalescing of hashed timing
wheels).  A simulated timer cannot be taken back once pushed, so a
call is filed only once it can still time out: when one of its
messages is lost, when its handler is still running after its first
step, or when its timeout is no longer than a round trip.  A call
answered in time costs no heap entry and no event of its own.
"""

from __future__ import annotations

import itertools
from functools import partial
from heapq import heappop, heappush, heapreplace
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.sim import Deadline, Event, Interrupt, Simulator, step_in_place

if TYPE_CHECKING:  # the network module builds its RpcTimeouts from here
    from repro.net.network import Message, NetNode, Network

__all__ = [
    "Done",
    "NotReady",
    "RemoteError",
    "RpcClient",
    "RpcServer",
    "RpcTimeout",
    "RpcTimeouts",
    "settle",
]


class RpcTimeout(Exception):
    """No response arrived within the deadline."""


class RemoteError(Exception):
    """The remote handler raised; carries the original message."""


_REQUEST = "rpc_request"
_RESPONSE = "rpc_response"
_NOT_READY = "rpc_not_ready"

#: ``not_ready(ready_at)``: an interim notice to the caller of the
#: request in hand, after SCSI's CHECK CONDITION with sense key NOT
#: READY and ASC/ASCQ 04h/01h ("becoming ready").  The request stays
#: queued and is answered once the device is ready at ``ready_at``; the
#: caller must not send it again.
NotReady = Callable[[float], None]


def _node(network: Network, address: str) -> NetNode:
    if address not in network:
        network.add_node(address)
    return network.node(address)


class RpcServer:
    """Dispatches incoming requests on one network node."""

    def __init__(self, sim: Simulator, network: Network, address: str):
        self.sim = sim
        self.network = network
        self.address = address
        self._handlers: Dict[str, Callable[..., Any]] = {}
        self._notifying: Set[str] = set()  # methods registered not_ready
        self.requests_served = 0
        _node(network, address).on(_REQUEST, self._on_request)

    def register(
        self, method: str, handler: Callable[..., Any], not_ready: bool = False
    ) -> None:
        """Serve ``method`` with ``handler``.

        With ``not_ready`` the handler takes a :data:`NotReady` callback
        before the call's own arguments, and may call it once.
        """
        if method in self._handlers:
            raise ValueError(f"handler for {method!r} already registered")
        self._handlers[method] = handler
        if not_ready:
            self._notifying.add(method)

    def _on_request(self, message: Message) -> None:
        payload = message.payload
        method = payload["method"]
        handler = self._handlers.get(method)
        if handler is None:
            self._reply(message, "error", f"no such method {method!r}")
            return
        args = payload.get("args", ())
        if method in self._notifying:
            args = (partial(self._not_ready, message), *args)
        try:
            result = handler(*args)
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            self._reply(message, "error", f"{type(exc).__name__}: {exc}")
            return
        if type(result) is not GeneratorType:
            self._reply(message, "result", result)
        elif step_in_place(self.sim, result, partial(self._handled, message)):
            # Still running: only now can the call outlive its deadline.
            self.network.rpc_timeouts.expire_at(message.src, payload["id"])

    def _handled(self, message: Message, value: Any, error: Optional[BaseException]) -> None:
        """Answer ``message`` with how its generator handler ended."""
        if error is None:
            self._reply(message, "result", value)
        elif isinstance(error, Exception) and not isinstance(error, Interrupt):
            self._reply(message, "error", f"{type(error).__name__}: {error}")
        else:
            # A kernel interrupt (server torn down mid-request), like any
            # exception that is not an Exception, must reach the kernel,
            # not be forwarded as an RPC error; the caller times out.
            self.network.rpc_timeouts.expire_at(message.src, message.payload["id"])
            raise error

    def _not_ready(self, message: Message, ready_at: float) -> None:
        self.network.send(
            self.address,
            message.src,
            {"kind": _NOT_READY, "id": message.payload["id"], "ready_at": ready_at},
        )

    def _reply(self, message: Message, outcome: str, value: Any) -> None:
        """Answer ``message``; ``outcome`` is ``"result"`` or ``"error"``."""
        self.requests_served += 1
        payload = message.payload
        self.network.send(
            self.address,
            message.src,
            {"kind": _RESPONSE, "id": payload["id"], outcome: value},
            payload.get("response_size", 256),
        )


#: ``done(result, error)``: error is ``None`` on success, else a
#: :class:`RemoteError` or :class:`RpcTimeout`.
Done = Callable[[Any, Optional[Exception]], None]

#: A pending call: ``(deadline, done, method, target, timeout, arm
#: order)``; the order is ``None`` once the call is filed.
_Pending = Tuple[float, Done, str, str, float, Optional[int]]


class RpcTimeouts:
    """The deadlines of every :class:`RpcClient`'s calls on one network.

    One heap of ``(deadline, arm order, client, request id)`` behind one
    armed :class:`~repro.sim.Deadline`, owned by the
    :class:`~repro.net.network.Network`.  A call takes its arm order
    when it is invoked, but is filed here (:meth:`expire_at`) only once
    it can end by timeout: the network reports each lost request or
    reply, the server reports a handler still running after its first
    step, and the client files a call whose timeout is no longer than a
    round trip.  A call answered otherwise arrives before its deadline,
    so it needs no entry.  When the deadline fires, each due call still
    pending times out, in (deadline, arm order) order; a call that a
    NOT READY notice moved goes back in at its moved deadline under its
    old arm order; answered calls at the head are dropped; and the
    deadline is armed again at the first call still pending.  A call
    therefore fails at exactly its own deadline, in (deadline, call)
    order within its client.
    """

    __slots__ = ("_sim", "_heap", "_order", "_deadline", "_clients")

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._heap: List[Tuple[float, int, RpcClient, int]] = []
        self._order = itertools.count()
        self._deadline = Deadline(sim, self._fire)
        self._clients: Dict[str, RpcClient] = {}  # address -> its client

    def expire_at(self, address: str, request_id: int) -> None:
        """Time out call ``request_id`` of the client at ``address`` at
        its deadline unless it is answered first.

        Files each pending call once; a call already filed, answered or
        expired, or an address with no client, is left alone.
        """
        client = self._clients.get(address)
        if client is None:
            return
        pending = client._pending.get(request_id)
        if pending is None or pending[5] is None:
            return
        deadline, done, method, target, timeout, order = pending
        client._pending[request_id] = (deadline, done, method, target, timeout, None)
        heappush(self._heap, (deadline, order, client, request_id))
        self._deadline.arm(deadline)

    def lost(self, src: str, dst: str, payload: Any) -> None:
        """Report a message the network dropped: a lost request files
        its sender's call, a lost reply its destination's."""
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind == _REQUEST:
            self.expire_at(src, payload["id"])
        elif kind == _RESPONSE:
            self.expire_at(dst, payload["id"])

    def _fire(self) -> None:
        now = self._sim.now
        heap = self._heap
        expired: List[_Pending] = []
        while heap:
            deadline, order, client, request_id = heap[0]
            pending = client._pending.get(request_id)
            if pending is None:
                heappop(heap)  # answered
            elif deadline > now:
                break
            elif pending[0] > deadline:  # moved by NOT READY
                heapreplace(heap, (pending[0], order, client, request_id))
            else:
                heappop(heap)
                expired.append(client._pending.pop(request_id))
        if heap:
            self._deadline.arm(heap[0][0])
        for _, done, method, target, timeout, _ in expired:
            done(None, RpcTimeout(f"{method} to {target} timed out after {timeout}s"))


class RpcClient:
    """Issues requests from one network node and matches responses.

    :meth:`invoke` is the one call path: it takes a completion callback
    that runs inside the reply's delivery, or when the call's deadline
    passes.  The deadline is filed in the network's
    :class:`RpcTimeouts` once the call can still miss it.  A NOT READY
    notice moves its call's deadline to ``ready_at`` plus the call's
    timeout, never earlier; a filed entry is left alone and goes back in
    at the moved deadline when it comes due.  :meth:`call` is the
    generator form, a waiter over :meth:`invoke`.
    """

    def __init__(self, sim: Simulator, network: Network, address: str):
        self.sim = sim
        self.network = network
        self.address = address
        self._ids = itertools.count(1)
        self._pending: Dict[int, _Pending] = {}
        self._timeouts = network.rpc_timeouts
        node = _node(network, address)
        node.on(_RESPONSE, self._on_response)
        node.on(_NOT_READY, self._on_not_ready)
        self._timeouts._clients[address] = self

    def _on_response(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.pop(payload["id"], None)
        if pending is None:
            return  # response after its deadline: drop
        if "error" in payload:
            pending[1](None, RemoteError(payload["error"]))
        else:
            pending[1](payload.get("result"), None)

    def _on_not_ready(self, message: Message) -> None:
        payload = message.payload
        request_id = payload["id"]
        pending = self._pending.get(request_id)
        if pending is None:
            return  # notice for a call already answered or expired: drop
        deadline, done, method, target, timeout, order = pending
        moved = payload["ready_at"] + timeout
        if moved > deadline:
            self._pending[request_id] = (moved, done, method, target, timeout, order)

    def invoke(
        self,
        target: str,
        method: str,
        args: Tuple[Any, ...],
        done: Done,
        timeout: float = 5.0,
        request_size: int = 256,
        response_size: int = 256,
    ) -> None:
        """Send one call; ``done(result, error)`` reports its outcome."""
        request_id = next(self._ids)
        payload = {
            "kind": _REQUEST,
            "id": request_id,
            "method": method,
            "args": args,
            "response_size": response_size,
        }
        timeouts = self._timeouts
        now = self.sim.now
        deadline = now + timeout
        self._pending[request_id] = (
            deadline, done, method, target, timeout, next(timeouts._order)
        )
        network = self.network
        network.send(self.address, target, payload, size=request_size)
        # A reply sent inside the request's delivery lands by the longest
        # round trip, 2 * (latency + jitter) + (request_size +
        # response_size) / bandwidth, added hop by hop as the network
        # rounds each arrival.  A deadline no later than that can expire
        # first, so the call is filed now.
        latency, jitter, bandwidth = network.latency, network.jitter, network.bandwidth
        if deadline <= now + (latency + request_size / bandwidth + jitter) + (
            latency + response_size / bandwidth + jitter
        ):
            timeouts.expire_at(self.address, request_id)

    def call(
        self,
        target: str,
        method: str,
        *args: Any,
        timeout: float = 5.0,
        request_size: int = 256,
        response_size: int = 256,
    ) -> Generator[Event, Any, Any]:
        """Generator performing one call; returns the result.

        Use as ``result = yield sim.process(client.call(...))`` or
        ``yield from`` inside another process.  The caller resumes
        inside the reply's delivery, or inside the deadline's pop when
        the call times out (:func:`settle`), so a call pops only its
        messages.
        """
        waiter = self.sim.event()
        self.invoke(
            target,
            method,
            args,
            settle(waiter),
            timeout=timeout,
            request_size=request_size,
            response_size=response_size,
        )
        result = yield waiter
        return result


def settle(waiter: Event) -> Done:
    """A ``done`` callback that fires ``waiter`` in place with the call's
    outcome, so its waiter resumes inside the reply's delivery (or the
    deadline's pop) with no wake-up event of its own."""
    return waiter.fire_in_place
