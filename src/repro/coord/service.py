"""Quorum-replicated coordination service (the Master's ZooKeeper).

The paper's Master is "a replicated state machine using the Paxos
consensus protocol", implemented in the prototype on ZooKeeper with
active-standby master processes (§IV-A, §V-B).  This module provides
that substrate: a small cluster of replicas running a leader-based
atomic broadcast (elections with epochs and log-completeness voting,
quorum-acknowledged commits — ZAB/Raft style) over the simulated
network, applying committed operations to a :class:`ZnodeTree`.

Simplifications relative to a production system, chosen deliberately
and documented here: log compaction/snapshots are omitted (runs are
finite), reads are served by the leader from applied state, and a
client watch lives on the leader that accepted it and is lost with that
leader.  A watch is a node watch: it fires when its node is created,
changed or deleted.  A leader numbers the watch events it sends each
client and answers each ping with its epoch and that count, so a client
learns of a leader change or of a lost event and registers its watches
again; ``coord.watch`` answers with the node's version, from which the
client tells whether it missed a change (ZooKeeper's SetWatches).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.net.network import Network
from repro.net.rpc import RpcClient, RpcServer
from repro.sim import Deadline, Event, Grid, Simulator
from repro.sim.rng import RngRegistry
from repro.coord.znode import NoNodeError, ZnodeError, ZnodeTree

__all__ = ["CoordReplica", "LogEntry", "NotLeaderError", "Role"]

#: Period of the grid on which a replica checks its election deadline.
ELECTION_CHECK_INTERVAL = 0.05
#: A follower that hears no leader for a uniform draw from this range
#: (seconds) stands for election; the leader heartbeats every half of
#: the shortest draw.
ELECTION_TIMEOUT_MIN = 0.50
ELECTION_TIMEOUT_MAX = 1.00
#: Seconds without a ping after which the leader expires a session.
SESSION_TIMEOUT = 2.00
#: Period of the grid on which the leader checks for expired sessions.
SESSION_CHECK_INTERVAL = 0.25


class NotLeaderError(Exception):
    """Raised to clients that contact a non-leader replica."""

    def __init__(self, hint: Optional[str]):
        super().__init__(f"NotLeader:{hint or '?'}")
        self.hint = hint


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass(frozen=True)
class LogEntry:
    epoch: int
    index: int
    op: Tuple  # ("create", path, data, ephemeral_owner, sequential) etc.


class CoordReplica:
    """One replica of the coordination cluster."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        peers: List[str],
        rng: Optional[RngRegistry] = None,
    ):
        self.sim = sim
        self.network = network
        self.address = address
        self.peers = [p for p in peers if p != address]
        self.cluster_size = len(self.peers) + 1
        self._rng = (rng or RngRegistry(0)).stream(f"coord:{address}")

        # Persistent state (would be on disk in a real system).
        self.current_epoch = 0
        self.voted_for: Optional[str] = None
        self.log: List[LogEntry] = []

        # Volatile state.
        self.role = Role.FOLLOWER
        self.leader_hint: Optional[str] = None
        self.commit_index = 0  # 1-based count of committed entries
        self.applied_index = 0
        self.tree = ZnodeTree()
        self.crashed = False

        # Leader-only state.
        self._next_index: Dict[str, int] = {}
        self._match_index: Dict[str, int] = {}
        self._pending_results: Dict[int, Event] = {}  # log index -> client waiter
        self._sessions_last_seen: Dict[str, float] = {}
        self._session_timeouts: Dict[str, float] = {}
        # Node watches: path -> watcher addresses, each once
        self._watches: Dict[str, List[str]] = {}
        # Watch events sent this epoch, per watcher address: each event
        # carries its number and each ping reply the count, so a session
        # can tell that one never arrived.
        self._watch_events_sent: Dict[str, int] = {}

        self._election_deadline = 0.0
        # Timers: each is one armed deadline on the grid its polling loop
        # would have woken on (DESIGN.md §8, "Control-plane timers").
        self._election_grid = Grid(sim.now, ELECTION_CHECK_INTERVAL)
        self._election_timer = Deadline(sim, self._on_election_deadline)
        self._expiry_grid = Grid(sim.now, SESSION_CHECK_INTERVAL)
        self._expirer = Deadline(sim, self._expire_sessions)
        self.rpc = RpcServer(sim, network, address)
        self.peer_rpc = RpcClient(sim, network, f"{address}.peerclient")
        self.rpc.register("coord.request_vote", self._on_request_vote)
        self.rpc.register("coord.append_entries", self._on_append_entries)
        self.rpc.register("coord.client_op", self._on_client_op)
        self.rpc.register("coord.ping_session", self._on_ping_session)
        self.rpc.register("coord.read", self._on_read)
        self.rpc.register("coord.watch", self._on_watch)
        self._bump_election_deadline()

    # ------------------------------------------------------------------
    # crash/recover control (used by fault injection)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        self.crashed = True
        self.network.set_alive(self.address, False)
        if self.role is Role.LEADER:
            self.role = Role.FOLLOWER
        self._election_timer.disarm()
        self._expirer.disarm()

    def recover(self) -> None:
        """Restart the replica; volatile state resets, the log survives."""
        self.crashed = False
        self.network.set_alive(self.address, True)
        self.role = Role.FOLLOWER
        self.leader_hint = None
        self._pending_results.clear()
        self._bump_election_deadline()

    # ------------------------------------------------------------------
    # elections
    # ------------------------------------------------------------------

    def _bump_election_deadline(self) -> None:
        self._election_deadline = self.sim.now + self._rng.uniform(
            ELECTION_TIMEOUT_MIN, ELECTION_TIMEOUT_MAX
        )
        # The armed tick is the first one at or after the old deadline; a
        # later deadline is picked up when that tick fires.
        if (
            self._election_deadline <= self._election_timer.at
            and not self.crashed
            and self.role is not Role.LEADER
        ):
            self._arm_election_timer()

    def _arm_election_timer(self) -> None:
        deadline = self._election_deadline
        self._election_timer.arm(
            self._election_grid.first_after(self.sim.now, lambda tick: tick >= deadline)
        )

    def _on_election_deadline(self) -> None:
        if self.crashed or self.role is Role.LEADER:
            return  # disarmed; recover() and _step_down() re-arm
        if self.sim.now >= self._election_deadline:
            self._run_election()
            self._bump_election_deadline()
        else:
            self._arm_election_timer()

    def _last_log_position(self) -> Tuple[int, int]:
        if not self.log:
            return (0, 0)
        last = self.log[-1]
        return (last.epoch, last.index)

    def _run_election(self) -> None:
        """Stand for election: ask every peer for its vote, and count
        each reply as it arrives."""
        self.role = Role.CANDIDATE
        self.current_epoch += 1
        epoch = self.current_epoch
        self.voted_for = self.address
        votes = 1
        last_epoch, last_index = self._last_log_position()

        def counted(reply: Any, error: Optional[Exception]) -> None:
            nonlocal votes
            if self.crashed or self.current_epoch != epoch or self.role is not Role.CANDIDATE:
                return  # the election is over
            if error is not None:
                return
            granted, peer_epoch = reply
            if peer_epoch > self.current_epoch:
                self._step_down(peer_epoch)
                return
            if granted:
                votes += 1
                if votes > self.cluster_size // 2:
                    self._become_leader()

        for peer in self.peers:
            self.peer_rpc.invoke(
                peer,
                "coord.request_vote",
                (epoch, self.address, last_epoch, last_index),
                counted,
                timeout=ELECTION_TIMEOUT_MIN / 2,
            )

    def _become_leader(self) -> None:
        self.role = Role.LEADER
        self.leader_hint = self.address
        last_index = len(self.log)
        self._next_index = {peer: last_index for peer in self.peers}
        self._match_index = {peer: 0 for peer in self.peers}
        # Fresh leader: give every known session a grace period.
        for session_id in self._sessions_last_seen:
            self._sessions_last_seen[session_id] = self.sim.now
        # Watches of an earlier epoch are gone; clients register theirs
        # again once a ping tells them of this epoch.
        self._watches.clear()
        self._watch_events_sent.clear()
        # Commit a no-op of the new epoch so entries inherited from prior
        # epochs become committable (the Raft "leader completeness" rule:
        # a leader only counts replicas for entries of its own epoch).
        self.log.append(LogEntry(self.current_epoch, len(self.log) + 1, ("noop",)))
        self._election_timer.disarm()
        self._arm_expirer()
        self._heartbeat(self.current_epoch)

    def _step_down(self, new_epoch: int) -> None:
        self.current_epoch = max(self.current_epoch, new_epoch)
        self.role = Role.FOLLOWER
        self.voted_for = None
        for waiter in self._pending_results.values():
            if not waiter.triggered:
                waiter.fail(NotLeaderError(self.leader_hint))
                waiter.defuse()
        self._pending_results.clear()
        self._expirer.disarm()
        self._bump_election_deadline()

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------

    def _heartbeat(self, epoch: int) -> None:
        """One heartbeat round; the next follows on the leader's fixed grid.

        The period is half the shortest election timeout: a follower
        still hears from a live leader after one lost heartbeat, and no
        commit waits for a round (proposals replicate when made)."""
        if self.crashed or self.role is not Role.LEADER or self.current_epoch != epoch:
            return
        self._replicate()
        self.sim.defer(ELECTION_TIMEOUT_MIN / 2, lambda: self._heartbeat(epoch))

    def _replicate(self) -> None:
        epoch = self.current_epoch
        for peer in self.peers:
            self._replicate_to(peer, epoch)

    def _replicate_to(self, peer: str, epoch: int) -> None:
        if self.crashed or self.role is not Role.LEADER or self.current_epoch != epoch:
            return
        next_index = self._next_index.get(peer, len(self.log))
        prev_epoch = self.log[next_index - 1].epoch if next_index > 0 else 0
        entries = self.log[next_index:]

        def done(reply: Any, error: Optional[Exception]) -> None:
            if error is not None or self.crashed or self.role is not Role.LEADER:
                return
            success, peer_epoch, peer_match = reply
            if peer_epoch > self.current_epoch:
                self._step_down(peer_epoch)
                return
            if success:
                # A late reply to an older append matches less than a
                # newer reply already did: it lowers neither index.
                self._match_index[peer] = max(self._match_index.get(peer, 0), peer_match)
                self._next_index[peer] = max(self._next_index.get(peer, 0), peer_match)
                self._advance_commit()
            else:
                self._next_index[peer] = max(0, next_index - 1)

        self.peer_rpc.invoke(
            peer,
            "coord.append_entries",
            (
                epoch,
                self.address,
                next_index,
                prev_epoch,
                [(e.epoch, e.index, e.op) for e in entries],
                self.commit_index,
            ),
            done,
            timeout=ELECTION_TIMEOUT_MIN,
        )

    def _propose(self, op: Tuple) -> LogEntry:
        entry = LogEntry(self.current_epoch, len(self.log) + 1, op)
        self.log.append(entry)
        return entry

    def _advance_commit(self) -> None:
        for candidate in range(len(self.log), self.commit_index, -1):
            if self.log[candidate - 1].epoch != self.current_epoch:
                continue
            acked = 1 + sum(
                1 for peer in self.peers if self._match_index.get(peer, 0) >= candidate
            )
            if acked > self.cluster_size // 2:
                self.commit_index = candidate
                break
        self._apply_committed()

    def _apply_committed(self) -> None:
        while self.applied_index < self.commit_index:
            entry = self.log[self.applied_index]
            self.applied_index += 1
            try:
                result: Any = self._apply(entry.op)
                ok = True
            except ZnodeError as exc:
                result = exc
                ok = False
            waiter = self._pending_results.pop(entry.index, None)
            if waiter is not None and not waiter.triggered:
                if ok:
                    waiter.succeed(result)
                else:
                    waiter.fail(result)

    def _apply(self, op: Tuple) -> Any:
        kind = op[0]
        if kind == "noop":
            return None
        if kind == "create":
            _, path, data, ephemeral_owner, sequential = op
            self.sim.touch_resource(f"znode:{self.address}{path}", write=True)
            actual = self.tree.create(path, data, ephemeral_owner, sequential)
            self._fire_watches(actual, "created")
            return actual
        if kind == "set":
            _, path, data = op
            self.sim.touch_resource(f"znode:{self.address}{path}", write=True)
            version = self.tree.set_data(path, data)
            self._fire_watches(path, "changed")
            return version
        if kind == "delete":
            _, path = op
            self.sim.touch_resource(f"znode:{self.address}{path}", write=True)
            self.tree.delete(path, recursive=True)
            self._fire_watches(path, "deleted")
            return True
        if kind == "create_session":
            _, session_id, timeout = op
            self._session_timeouts[session_id] = timeout
            self._sessions_last_seen.setdefault(session_id, self.sim.now)
            self._arm_expirer()
            return session_id
        if kind == "expire_session":
            _, session_id = op
            removed = self.tree.delete_ephemerals_of(session_id)
            self._sessions_last_seen.pop(session_id, None)
            self._session_timeouts.pop(session_id, None)
            for path in removed:
                self._fire_watches(path, "deleted")
            return removed
        raise ZnodeError(f"unknown op {kind!r}")

    # ------------------------------------------------------------------
    # watches (leader-local)
    # ------------------------------------------------------------------

    def _fire_watches(self, path: str, event_type: str) -> None:
        if self.role is not Role.LEADER:
            return
        for watcher_address in self._watches.pop(path, ()):
            seq = self._watch_events_sent.get(watcher_address, 0) + 1
            self._watch_events_sent[watcher_address] = seq
            self.network.send(
                self.address,
                watcher_address,
                {
                    "kind": "watch_event",
                    "path": path,
                    "type": event_type,
                    "epoch": self.current_epoch,
                    "seq": seq,
                },
            )

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------

    def _on_request_vote(
        self, epoch: int, candidate: str, last_epoch: int, last_index: int
    ):
        if self.crashed:
            raise ZnodeError("crashed")
        if epoch > self.current_epoch:
            self._step_down(epoch)
        granted = False
        my_last = self._last_log_position()
        log_ok = (last_epoch, last_index) >= my_last
        if (
            epoch == self.current_epoch
            and log_ok
            and self.voted_for in (None, candidate)
            and self.role is not Role.LEADER
        ):
            granted = True
            self.voted_for = candidate
            self._bump_election_deadline()
        return (granted, self.current_epoch)

    def _on_append_entries(
        self,
        epoch: int,
        leader: str,
        start_index: int,
        prev_epoch: int,
        entries: list,
        leader_commit: int,
    ):
        if self.crashed:
            raise ZnodeError("crashed")
        if epoch < self.current_epoch:
            return (False, self.current_epoch, len(self.log))
        if epoch > self.current_epoch or self.role is not Role.FOLLOWER:
            self._step_down(epoch)
        self.leader_hint = leader
        self._bump_election_deadline()
        # Consistency check on the entry preceding start_index.
        if start_index > len(self.log):
            return (False, self.current_epoch, len(self.log))
        if start_index > 0 and self.log[start_index - 1].epoch != prev_epoch:
            del self.log[start_index - 1 :]
            return (False, self.current_epoch, len(self.log))
        # Keep every entry already held with the same epoch, so that an
        # append that arrives after a newer one takes back nothing this
        # follower has acknowledged; truncate only from the first
        # conflict (Raft).
        log = self.log
        for position, (e_epoch, e_index, e_op) in enumerate(entries, start_index):
            if position < len(log):
                if log[position].epoch == e_epoch:
                    continue
                del log[position:]
            log.append(LogEntry(e_epoch, e_index, e_op))
        match = start_index + len(entries)
        if leader_commit > self.commit_index:
            self.commit_index = min(leader_commit, match)
            self._apply_committed()
        return (True, self.current_epoch, match)

    def _on_client_op(self, op: list):
        """Propose an operation; generator resolves when committed."""
        if self.crashed:
            raise ZnodeError("crashed")
        if self.role is not Role.LEADER:
            raise NotLeaderError(self.leader_hint)
        entry = self._propose(tuple(op))
        waiter = self.sim.event()
        self._pending_results[entry.index] = waiter
        self._replicate()

        def wait() -> Generator[Event, None, Any]:
            result = yield waiter
            return result

        return wait()

    def _on_ping_session(self, session_id: str, watcher_address: str):
        """Renew the session; answer ``(epoch, watch events sent)``."""
        if self.crashed:
            raise ZnodeError("crashed")
        if self.role is not Role.LEADER:
            raise NotLeaderError(self.leader_hint)
        if session_id not in self._session_timeouts:
            raise ZnodeError(f"unknown session {session_id!r}")
        returning = session_id not in self._sessions_last_seen
        self._sessions_last_seen[session_id] = self.sim.now
        if returning:
            self._arm_expirer()  # expired here, its expiry not yet applied
        return (self.current_epoch, self._watch_events_sent.get(watcher_address, 0))

    def _on_read(self, what: str, path: str):
        if self.crashed:
            raise ZnodeError("crashed")
        if self.role is not Role.LEADER:
            raise NotLeaderError(self.leader_hint)
        self.sim.touch_resource(f"znode:{self.address}{path}", write=False)
        if what == "get":
            return self.tree.get_data(path)
        if what == "exists":
            return self.tree.exists(path)
        if what == "children":
            return self.tree.get_children(path)
        raise ZnodeError(f"unknown read {what!r}")

    def _on_watch(self, watcher_address: str, path: str):
        """Register a one-shot node watch; answer ``(epoch, version)``,
        the version ``None`` if the node does not exist."""
        if self.crashed:
            raise ZnodeError("crashed")
        if self.role is not Role.LEADER:
            raise NotLeaderError(self.leader_hint)
        waiters = self._watches.setdefault(path, [])
        if watcher_address not in waiters:
            waiters.append(watcher_address)
        self.sim.touch_resource(f"znode:{self.address}{path}", write=False)
        try:
            node = self.tree.get(path)
        except NoNodeError:
            return (self.current_epoch, None)
        return (self.current_epoch, node.version)

    # ------------------------------------------------------------------
    # session expiry
    # ------------------------------------------------------------------

    def _overdue_sessions(self, now: float) -> List[str]:
        return [
            sid
            for sid, last in self._sessions_last_seen.items()
            if now - last > self._session_timeouts.get(sid, SESSION_TIMEOUT)
        ]

    def _arm_expirer(self) -> None:
        """Arm the check at the first tick on which some session is overdue."""
        if self.crashed or self.role is not Role.LEADER or not self._sessions_last_seen:
            return
        self._expirer.arm(
            self._expiry_grid.first_after(
                self.sim.now, lambda tick: bool(self._overdue_sessions(tick))
            )
        )

    def _expire_sessions(self) -> None:
        if self.crashed or self.role is not Role.LEADER:
            return
        expired = self._overdue_sessions(self.sim.now)
        for session_id in expired:
            self._sessions_last_seen.pop(session_id, None)
            self._propose(("expire_session", session_id))
        if expired:
            self._replicate()  # one round carries every expiry
        self._arm_expirer()
