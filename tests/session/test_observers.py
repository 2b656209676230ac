"""The observer protocol: ordering, hook coverage, and the adapters.

Observers registered on a session fire in registration order, see every
commit / view change / fault window / event exactly once, and cannot
perturb the run (fingerprints are pinned with and without observers).
"""

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.session import (
    CallbackObserver,
    EnergyTimelineObserver,
    ObserverBus,
    PerfObserver,
    Session,
    SessionObserver,
)
from repro.testkit import faults
from repro.testkit.trace import TraceRecorder


def spec_with(**kwargs) -> DeploymentSpec:
    kwargs.setdefault("protocol", "eesmr")
    return DeploymentSpec(n=5, f=1, k=2, target_height=3, seed=17, **kwargs)


class RecordingObserver(SessionObserver):
    """Records every hook invocation as (hook, payload) tuples."""

    def __init__(self, name: str, journal: list) -> None:
        self.name = name
        self.journal = journal

    def on_session_start(self, session) -> None:
        self.journal.append((self.name, "start", None))

    def on_event(self, time, label) -> None:
        self.journal.append((self.name, "event", (time, label)))

    def on_block_commit(self, pid, block, view, time) -> None:
        self.journal.append((self.name, "commit", (pid, block.height, view, time)))

    def on_view_change(self, pid, view, time) -> None:
        self.journal.append((self.name, "view-change", (pid, view, time)))

    def on_fault_window(self, node, kind, active, time) -> None:
        self.journal.append((self.name, "fault", (node, kind, active, time)))

    def on_session_end(self, session, result) -> None:
        self.journal.append((self.name, "end", None))


def test_observers_fire_in_registration_order():
    journal: list = []
    first = RecordingObserver("first", journal)
    second = RecordingObserver("second", journal)
    session = Session.from_spec(spec_with(), observers=[first, second])
    session.run().finish()
    assert journal, "observers never fired"
    # Per hook invocation, 'first' always precedes 'second' with an
    # identical payload.
    firsts = [(h, p) for n, h, p in journal if n == "first"]
    seconds = [(h, p) for n, h, p in journal if n == "second"]
    assert firsts == seconds
    assert journal[0] == ("first", "start", None)
    assert journal[1] == ("second", "start", None)
    assert journal[-1] == ("second", "end", None)


def test_block_commit_hook_counts_match_result():
    journal: list = []
    observer = RecordingObserver("o", journal)
    session = Session.from_spec(spec_with(), observers=[observer])
    result = session.run().finish()
    commits = [p for _, h, p in journal if h == "commit"]
    per_node = {}
    for pid, height, _view, _time in commits:
        per_node[pid] = per_node.get(pid, 0) + 1
    assert per_node == {
        pid: height for pid, height in result.committed_heights.items() if height
    }
    # Commit times are monotone per node and heights are sequential.
    for pid in per_node:
        heights = [h for p, h, _v, _t in commits if p == pid]
        assert heights == sorted(heights)


def test_view_change_hook_fires_on_leader_crash():
    journal: list = []
    observer = RecordingObserver("o", journal)
    session = Session.from_spec(
        spec_with(fault_schedule=faults.crash_at(0, time=0.0)), observers=[observer]
    )
    result = session.run().finish()
    view_changes = [p for _, h, p in journal if h == "view-change"]
    assert result.view_changes >= 1
    assert len(view_changes) >= result.view_changes
    assert all(view == 2 for _pid, view, _t in view_changes)


def test_fault_window_hook_sees_open_and_close_edges():
    journal: list = []
    observer = RecordingObserver("o", journal)
    session = Session.from_spec(
        spec_with(fault_schedule=faults.drop_window(4, start=1.0, end=8.0)),
        observers=[observer],
    )
    session.run().finish()
    edges = [p for _, h, p in journal if h == "fault"]
    assert (4, "relay-deny", True, 1.0) in edges
    assert (4, "relay-deny", False, 8.0) in edges


def test_event_hook_sees_every_traced_event():
    journal: list = []
    observer = RecordingObserver("o", journal)
    recorder = TraceRecorder()
    session = Session.from_spec(spec_with(), observers=[observer], recorder=recorder)
    result = session.run().finish()
    events = [p for _, h, p in journal if h == "event"]
    assert events == [tuple(e) for e in result.trace.events]


def test_observers_do_not_perturb_the_run():
    reference = (
        run_protocol(spec_with(), recorder=TraceRecorder()).trace.fingerprint()
    )
    journal: list = []
    session = Session.from_spec(
        spec_with(),
        observers=[RecordingObserver("o", journal), PerfObserver(), EnergyTimelineObserver()],
        recorder=TraceRecorder(),
    )
    assert session.run().finish().trace.fingerprint() == reference


def test_callback_observer_and_bus_overrides():
    seen = []
    observer = CallbackObserver(on_view_change=lambda pid, view, t: seen.append((pid, view)))
    bus = ObserverBus([observer])
    assert bus.overrides("on_view_change")
    assert not bus.overrides("on_event")
    with pytest.raises(ValueError):
        CallbackObserver(on_teleport=lambda: None)

    session = Session.from_spec(
        spec_with(fault_schedule=faults.crash_at(0, time=0.0)), observers=[observer]
    )
    session.run().finish()
    assert seen and all(view == 2 for _pid, view in seen)


def test_unobserved_session_installs_no_hot_path_hooks():
    session = Session.from_spec(spec_with(), recorder=TraceRecorder())
    assert session.sim.event_observer is None
    assert session.network.fault_observer is None
    assert all(r.hooks is None for r in session.replicas.values())


def test_perf_observer_summary():
    perf = PerfObserver()
    session = Session.from_spec(spec_with(), observers=[perf])
    result = session.run().finish()
    summary = perf.summary()
    assert summary["events"] == session.sim.executed_events
    assert sum(summary["events_by_prefix"].values()) == summary["events"]
    assert summary["commits_by_node"] == {
        pid: h for pid, h in result.committed_heights.items() if h
    }


def test_energy_timeline_observer_is_monotone():
    energy = EnergyTimelineObserver()
    session = Session.from_spec(spec_with(), observers=[energy])
    result = session.run().finish()
    joules = [j for _, _, j in energy.samples]
    assert joules == sorted(joules)
    assert joules[0] == 0.0
    assert joules[-1] == pytest.approx(session.ledger.total_joules())
    assert energy.joules_between(0.0, result.sim_time) == pytest.approx(joules[-1])


def test_trace_recorder_is_an_observer():
    recorder = TraceRecorder()
    assert isinstance(recorder, SessionObserver)
    session = Session.from_spec(spec_with(), observers=[recorder])
    result = session.run().finish()
    assert result.trace is not None
    assert result.trace.committed_heights[1] == 3
