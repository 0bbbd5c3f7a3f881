"""Replay-determinism regression: same seeds => byte-identical runs.

Runs experiments twice each under an :class:`EventDigest` that folds
every processed event's ``(time, priority, seq)`` into SHA-256, so
equal digests mean the kernels popped exactly the same events in
exactly the same order.  Results are also compared as JSON to cover
value-level determinism (figure5 is closed-form and processes no
events, so its digest alone would be vacuous).  reliability declares
no ``detect_races`` parameter, so its race check arms the detector on
the event-driven studies directly.  The request-trace export is
compared across two replays here, since the exported traces are not
part of any result document.
"""

from repro.cluster import build_deployment
from repro.experiments import EXPERIMENTS, gateway_slo
from repro.experiments.reliability import _reconstruction, _scrubbing
from repro.obs import RequestTracer, export_trace_jsonl
from repro.sim import EventDigest


def run_twice(name, **overrides):
    digests, results = [], []
    for _ in range(2):
        with EventDigest().under() as digest:
            results.append(EXPERIMENTS.get(name).run(**overrides))
        digests.append(digest)
    return digests, results


def test_figure5_replays_identically():
    digests, results = run_twice("figure5", detect_races=True)
    assert digests[0].hexdigest() == digests[1].hexdigest()
    assert results[0].to_json() == results[1].to_json()


def test_figure5_reports_no_races():
    _, results = run_twice("figure5", detect_races=True)
    assert results[0].raw["races"] == []


def test_reliability_replays_identically():
    digests, results = run_twice("reliability")
    assert digests[0].hexdigest() == digests[1].hexdigest()
    assert digests[0].events == digests[1].events
    assert digests[0].events > 0, "reliability should process events"
    assert results[0].to_json() == results[1].to_json()


def test_reliability_reports_no_races():
    assert _reconstruction(detect_races=True)["races"] == []
    assert _scrubbing(detect_races=True)["races"] == []


def test_gateway_trace_export_replays_identically():
    exports = []
    for _ in range(2):
        chunks = []
        for variant in ("batch", "fifo"):
            tracer = RequestTracer()
            gateway_slo.run_point(variant, tracer=tracer, detect_races=True)
            chunks.append(export_trace_jsonl(tracer.completed))
        exports.append("\n".join(chunks))
    assert exports[0] == exports[1], "trace export differs between replays"
    assert exports[0], "export was empty"


def test_deployment_replay_ignores_other_deployments():
    # Regression: coordination replicas once cached their peer RPC
    # clients in a module-global table keyed by address, so a second
    # deployment built in between rewired the first one's replies.
    def run_first(build_second):
        with EventDigest().under() as digest:
            first = build_deployment()
        first.settle()
        if build_second:
            build_deployment().settle()
        first.sim.run(until=first.sim.now + 30.0)
        return digest.hexdigest(), digest.events

    assert run_first(build_second=True) == run_first(build_second=False)
