"""Pin the control plane's message timing across its implementation.

Three deployment scenarios log every ``Network.send`` as
``(repr(sim.now), src, dst, method-or-kind)`` from the moment the
deployment is built: settle plus 100 idle seconds, a host crash and
recovery, and a coordination-leader crash and recovery.  The count and
a SHA-256 of each log are pinned, together with the instant the Master
marks the crashed host CRASHED and the identity, epoch and election
instant of the new coordination leader.  Any change to which messages
leave, when, or in which order (including a shifted jitter draw, which
moves every later send on that link and every send it causes) changes
a digest.
"""

import hashlib

from repro.cluster import build_deployment
from repro.cluster.metadata import HostStatus
from repro.coord import Role


class _StatusLog(dict):
    """``SysStat.host_status`` stand-in that records CRASHED markings."""

    def __init__(self, sim, marks, items=()):
        super().__init__(items)
        self._sim = sim
        self._marks = marks

    def __setitem__(self, host_id, status):
        if status is HostStatus.CRASHED:
            self._marks.append((host_id, self._sim.now))
        super().__setitem__(host_id, status)


def _logged_deployment():
    dep = build_deployment()
    log = []
    send = dep.network.send

    def logged(src, dst, payload, size=256):
        label = payload.get("method", payload["kind"])
        log.append(f"{dep.sim.now!r}|{src}|{dst}|{label}")
        send(src, dst, payload, size)

    dep.network.send = logged
    crashed = []
    for master in dep.masters:
        master.sysstat.host_status = _StatusLog(
            dep.sim, crashed, master.sysstat.host_status
        )
    return dep, log, crashed


def _digest(log):
    return hashlib.sha256("\n".join(log).encode()).hexdigest()


def _run_for(dep, seconds):
    dep.sim.run(until=dep.sim.now + seconds)


def _leader(dep):
    leaders = [r for r in dep.coord_replicas if r.role is Role.LEADER and not r.crashed]
    assert len(leaders) == 1
    return leaders[0]


def test_idle_deployment_sends():
    dep, log, crashed = _logged_deployment()
    dep.settle()
    _run_for(dep, 100.0)
    assert len(log) == IDLE_SENDS
    assert _digest(log) == IDLE_DIGEST
    assert crashed == []


def test_host_crash_and_recovery_sends():
    dep, log, crashed = _logged_deployment()
    dep.settle()
    _run_for(dep, 3.3)
    dep.crash_host("host1")
    _run_for(dep, 30.0)
    dep.recover_host("host1")
    _run_for(dep, 30.0)
    assert len(log) == HOST_CRASH_SENDS
    assert _digest(log) == HOST_CRASH_DIGEST
    assert [(host, repr(at)) for host, at in crashed] == HOST_CRASHED_AT


def test_coord_leader_crash_and_recovery_sends():
    dep, log, crashed = _logged_deployment()
    dep.settle()
    _run_for(dep, 2.17)
    old = _leader(dep)
    old_leader = (old.address, old.current_epoch)
    elections = []
    for replica in dep.coord_replicas:
        become = replica._become_leader

        def recorded(replica=replica, become=become):
            elections.append((replica.address, replica.current_epoch, repr(dep.sim.now)))
            become()

        replica._become_leader = recorded
    old.crash()
    _run_for(dep, 20.0)
    old.recover()
    _run_for(dep, 20.0)
    assert len(log) == LEADER_CRASH_SENDS
    assert _digest(log) == LEADER_CRASH_DIGEST
    assert old_leader == OLD_LEADER
    assert elections == LEADER_ELECTIONS
    assert _leader(dep).address == LEADER_ELECTIONS[-1][0]
    assert crashed == []


IDLE_SENDS = 5_892
IDLE_DIGEST = "2d1b77eb195cd628d9450ecddc177026256eb2851d52cc59e6f10d4c887cd154"
HOST_CRASH_SENDS = 3_934
HOST_CRASH_DIGEST = "2b735aff107a937ed948613358cb6aca746154d8c0e76c67d513d46fb88f7daf"
HOST_CRASHED_AT = [("host1", "17.762667517827936")]
LEADER_CRASH_SENDS = 2_906
LEADER_CRASH_DIGEST = "8a83a0f6e7d0a4bdfdac3371792e0fce854395f5bc78ff026a78b49401a18411"
OLD_LEADER = ("coord0", 1)
LEADER_ELECTIONS = [("coord1", 2, "15.050000000000075")]
