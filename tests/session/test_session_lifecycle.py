"""Session lifecycle: step/pause/resume determinism and the runner shim.

The redesign's core contract: however a run is *driven* — one shot,
event by event, in time slices, or paused on a predicate and resumed —
the resulting trace is byte-for-byte identical.  ``run_protocol`` stays a
thin shim over a session, so the golden fingerprints hold through every
path here.
"""

import pytest

import repro.session.session as session_module
from repro.eval.runner import DeploymentSpec, run_protocol
from repro.session import Session
from repro.session.builder import compute_delta
from repro.sim.scheduler import SimulationError
from repro.testkit.trace import TraceRecorder


def small_spec(**kwargs) -> DeploymentSpec:
    kwargs.setdefault("protocol", "eesmr")
    return DeploymentSpec(n=5, f=1, k=2, target_height=3, seed=17, **kwargs)


def oneshot_fingerprint(spec: DeploymentSpec) -> str:
    return run_protocol(spec, recorder=TraceRecorder()).trace.fingerprint()


@pytest.mark.parametrize("protocol", ["eesmr", "sync-hotstuff", "optsync", "trusted-baseline"])
def test_single_stepped_run_matches_oneshot_fingerprint(protocol):
    spec = small_spec(protocol=protocol)
    reference = oneshot_fingerprint(spec)

    session = Session.from_spec(small_spec(protocol=protocol), recorder=TraceRecorder())
    steps = 0
    while session.step():
        steps += 1
    result = session.finish()
    assert steps > 0
    assert result.trace.fingerprint() == reference
    assert session.sim.executed_events == steps


def test_time_sliced_run_matches_oneshot_fingerprint():
    spec = small_spec()
    reference = oneshot_fingerprint(spec)

    session = Session.from_spec(small_spec(), recorder=TraceRecorder())
    # Resume from arbitrary pause points: 1-unit slices, then quiescence.
    for _ in range(5):
        session.run_until(deadline=session.now + 1.0)
    result = session.run().finish()
    assert result.trace.fingerprint() == reference


def test_pause_on_predicate_inspect_resume():
    spec = small_spec()
    reference = oneshot_fingerprint(spec)

    session = Session.from_spec(small_spec(), recorder=TraceRecorder())
    session.run_until(pred=lambda s: max(r.committed_height for r in s.replicas.values()) >= 1)

    snapshot = session.inspect()
    assert max(snapshot["committed_heights"].values()) >= 1
    # Paused mid-run: the chain is not finished and the queue is live.
    assert snapshot["pending_events"] > 0
    assert min(snapshot["committed_heights"].values()) < spec.target_height
    assert snapshot["total_joules"] > 0

    result = session.run().finish()
    assert result.trace.fingerprint() == reference
    assert result.min_committed_height == spec.target_height


def test_run_until_requires_deadline_or_predicate():
    session = Session.from_spec(small_spec())
    with pytest.raises(ValueError):
        session.run_until()


def test_run_protocol_is_a_session_shim():
    spec = small_spec()
    via_shim = run_protocol(spec)
    via_session = Session.from_spec(small_spec()).run().finish()
    assert via_shim.committed_heights == via_session.committed_heights
    assert via_shim.sim_time == via_session.sim_time
    assert via_shim.energy.correct_total_joules == via_session.energy.correct_total_joules


def test_finish_is_idempotent():
    session = Session.from_spec(small_spec())
    result = session.run().finish()
    assert session.finish() is result
    assert session.result is result


def test_start_is_idempotent_and_implicit():
    session = Session.from_spec(small_spec())
    session.start()
    before = session.sim.pending_events
    session.start()
    assert session.sim.pending_events == before
    assert session.started


def test_session_exposes_live_substrates():
    session = Session.from_spec(small_spec())
    assert set(session.replicas) == set(range(5))
    assert session.config.n == 5
    assert session.topology.nodes == list(range(5))
    assert session.delta == compute_delta(session.spec, session.topology)
    assert session.control is None and session.control_id is None


def test_trusted_baseline_session_has_control_node():
    session = Session.from_spec(small_spec(protocol="trusted-baseline"))
    assert session.control is not None
    assert session.control_id == 5
    result = session.run().finish()
    assert result.safety.consistent


def test_max_events_budget_enforced(monkeypatch):
    monkeypatch.setattr(session_module, "MAX_EVENTS", 10)
    session = Session.from_spec(small_spec())
    with pytest.raises(SimulationError, match="max_events=10"):
        session.run()
