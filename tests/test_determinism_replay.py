"""Replay-determinism regression: same seeds => byte-identical runs.

Runs the figure5 and reliability experiments twice each with the race
detector armed and an :class:`EventDigest` attached.  The digests fold
every processed event's ``(time, priority, seq)`` into SHA-256, so
equal digests mean the kernels popped exactly the same events in
exactly the same order.  Results are also compared by ``repr`` to
cover value-level determinism (figure5 is closed-form and processes no
events, so its digest alone would be vacuous).
"""

from repro.cluster import build_deployment
from repro.experiments import figure5, reliability
from repro.sim import EventDigest


def run_twice(experiment):
    digests, results = [], []
    for _ in range(2):
        digest = EventDigest()
        results.append(experiment.run(detect_races=True, event_digest=digest))
        digests.append(digest)
    return digests, results


def test_figure5_replays_identically():
    digests, results = run_twice(figure5)
    assert digests[0].hexdigest() == digests[1].hexdigest()
    assert repr(results[0]) == repr(results[1])


def test_figure5_reports_no_races():
    _, results = run_twice(figure5)
    assert results[0]["races"] == []


def test_reliability_replays_identically():
    digests, results = run_twice(reliability)
    assert digests[0].hexdigest() == digests[1].hexdigest()
    assert digests[0].events == digests[1].events
    assert digests[0].events > 0, "reliability should process events"
    assert repr(results[0]) == repr(results[1])


def test_reliability_reports_no_races():
    _, results = run_twice(reliability)
    assert results[0]["races"] == []


def test_deployment_replay_ignores_other_deployments():
    # Regression: coordination replicas once cached their peer RPC
    # clients in a module-global table keyed by address, so a second
    # deployment built in between rewired the first one's replies.
    def run_first(build_second):
        first = build_deployment()
        first.settle()
        if build_second:
            build_deployment().settle()
        digest = EventDigest().attach(first.sim)
        first.sim.run(until=first.sim.now + 30.0)
        return digest.hexdigest(), digest.events

    assert run_first(build_second=True) == run_first(build_second=False)
