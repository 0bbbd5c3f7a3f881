"""Same-timestamp race detector: synthetic conflicts and benign cases."""

import pytest

from repro.analysis import Race, RaceDetector
from repro.sim import Simulator, Store


def writer(sim, store, item):
    yield sim.timeout(1.0)
    store.put(item)


def test_same_timestamp_writes_to_named_store_flagged():
    sim = Simulator(detect_races=True)
    store = Store(sim, name="mailbox")
    sim.process(writer(sim, store, "a"))
    sim.process(writer(sim, store, "b"))
    sim.run()
    races = sim.races
    assert len(races) == 1
    race = races[0]
    assert race.resource == "mailbox"
    assert race.time == 1.0
    assert len(race.seqs) == 2
    assert "mailbox" in race.render()


def test_different_timestamps_not_flagged():
    sim = Simulator(detect_races=True)
    store = Store(sim, name="mailbox")

    def staggered(delay, item):
        yield sim.timeout(delay)
        store.put(item)

    sim.process(staggered(1.0, "a"))
    sim.process(staggered(2.0, "b"))
    sim.run()
    assert sim.races == []


def test_anonymous_store_untracked():
    sim = Simulator(detect_races=True)
    store = Store(sim)  # no name: opted out of detection
    sim.process(writer(sim, store, "a"))
    sim.process(writer(sim, store, "b"))
    sim.run()
    assert sim.races == []


def test_concurrent_reads_benign():
    sim = Simulator(detect_races=True)

    def reader():
        yield sim.timeout(1.0)
        sim.touch_resource("config", write=False)

    sim.process(reader())
    sim.process(reader())
    sim.run()
    assert sim.races == []


def test_read_write_conflict_flagged():
    sim = Simulator(detect_races=True)

    def toucher(write):
        yield sim.timeout(1.0)
        sim.touch_resource("config", write=write)

    sim.process(toucher(True))
    sim.process(toucher(False))
    sim.run()
    races = sim.races
    assert len(races) == 1
    assert races[0].writes == 1


def test_detection_off_by_default():
    sim = Simulator()
    store = Store(sim, name="mailbox")
    sim.process(writer(sim, store, "a"))
    sim.process(writer(sim, store, "b"))
    sim.run()
    assert sim.races == []


def test_detector_touch_outside_event_is_noop():
    detector = RaceDetector()
    detector.touch("resource", write=True)
    assert detector.report() == []


def test_race_is_plain_data():
    race = Race(time=1.0, priority=0, resource="r", seqs=(3, 4), writes=2)
    assert "r" in race.render()
    assert race == Race(time=1.0, priority=0, resource="r", seqs=(3, 4), writes=2)
    assert race.labels == ()


def test_race_labels_point_at_source():
    sim = Simulator(detect_races=True)
    store = Store(sim, name="mailbox")
    sim.process(writer(sim, store, "a"))
    sim.process(writer(sim, store, "b"))
    sim.run()
    (race,) = sim.races
    assert len(race.labels) == len(race.seqs) == 2
    # Both conflicting events resume the ``writer`` process generator.
    assert all("writer" in label for label in race.labels)
    assert "writer" in race.render()


def test_race_labels_for_plain_callbacks():
    sim = Simulator(detect_races=True)

    def bump(_event):
        sim.touch_resource("counter", write=True)

    sim.timeout(1.0).callbacks.append(bump)
    sim.timeout(1.0).callbacks.append(bump)
    sim.run()
    (race,) = sim.races
    assert all("bump" in label for label in race.labels)


def _step_to(sim, end):
    while not end.processed:
        sim.step()


#: Every way to run events, each run past the writers' instant.
ENTRY_POINTS = {
    "run": lambda sim, end: sim.run(),
    "run_until": lambda sim, end: sim.run(until=1.5),
    "step": _step_to,
    "run_until_event": lambda sim, end: sim.run_until_event(end),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_named_store_race_reported_whichever_entry_point_runs_it(entry):
    sim = Simulator(detect_races=True)
    store = Store(sim, name="mailbox")
    sim.process(writer(sim, store, "a"))
    sim.process(writer(sim, store, "b"))
    end = sim.timeout(2.0)
    ENTRY_POINTS[entry](sim, end)
    (race,) = sim.races
    assert (race.resource, race.time) == ("mailbox", 1.0)
    assert race.labels == ("resume:writer", "resume:writer")
    assert "resume:writer" in race.render()


def slow(sim):
    """An RPC handler that waits one timeout before it answers."""
    yield sim.timeout(1.0)
    return "done"


def test_stepped_rpc_handler_events_are_named_after_the_handler(monkeypatch):
    # An RPC server resumes a generator handler from a partial, not a
    # process; race reports still name the handler, not the partial.
    from repro.net import Network, RpcClient, RpcServer

    labels = []
    begin = RaceDetector.begin_event

    def recording(detector, time, priority, seq, label=""):
        labels.append(label)
        begin(detector, time, priority, seq, label)

    monkeypatch.setattr(RaceDetector, "begin_event", recording)
    sim = Simulator(detect_races=True)
    net = Network(sim, jitter=0.0)
    RpcServer(sim, net, "server").register("slow", slow)
    client = RpcClient(sim, net, "client")
    assert sim.run_until_event(sim.process(client.call("server", "slow", sim))) == "done"
    assert "resume:slow" in labels
    assert not any(label.startswith("callback:partial") for label in labels)
