"""The adaptive leader-following adversary, end to end.

The first mobile adversary: built on the session's steppable run control,
it crashes whichever node the rotation currently makes leader, follows
the resulting view change to the successor, and strikes again until its
budget is spent.  The victim set is decided mid-run and recorded back
onto the schedule, so Byzantine/liveness accounting, the invariant
battery and the scenario matrix all see the realised adversary.
"""

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.session import LeaderFollowingController, Session
from repro.testkit import faults
from repro.testkit.faults import LeaderFollowingCrash, leader_following_crash
from repro.testkit.scenarios import ADAPTIVE_FAULTS, FAULT_LIBRARY, ScenarioMatrix
from repro.testkit.trace import TraceRecorder


def adaptive_spec(budget: int = 1, protocol: str = "eesmr", **kwargs) -> DeploymentSpec:
    kwargs.setdefault("n", 7)
    kwargs.setdefault("f", 2)
    kwargs.setdefault("k", 3)
    kwargs.setdefault("topology", "fully-connected")
    kwargs.setdefault("target_height", 3)
    kwargs.setdefault("seed", 5)
    # Space proposals over virtual time so a mid-run strike interrupts
    # the workload instead of arriving after the chain is already out.
    kwargs.setdefault("block_interval", 2.0)
    return DeploymentSpec(
        protocol=protocol,
        fault_schedule=leader_following_crash(budget=budget, start=1.0, interval=1.0),
        **kwargs,
    )


def test_strikes_the_initial_leader_and_forces_a_view_change():
    spec = adaptive_spec(budget=1)
    result = run_protocol(spec)
    assert spec.byzantine_nodes == (0,)
    assert result.view_changes >= 1
    assert result.safety.consistent
    assert result.min_committed_height == spec.target_height


def test_budget_two_follows_the_rotation_to_the_next_leader():
    spec = adaptive_spec(budget=2)
    result = run_protocol(spec)
    # The adversary retargeted: first the view-1 leader, then whichever
    # node the rotation installed next.
    assert spec.byzantine_nodes == (0, 1)
    assert result.view_changes >= 2
    assert result.safety.consistent
    correct = [h for pid, h in result.committed_heights.items() if pid not in (0, 1)]
    assert all(h == spec.target_height for h in correct)


@pytest.mark.parametrize("protocol", ["sync-hotstuff", "optsync"])
def test_adaptive_adversary_works_against_baselines(protocol):
    spec = adaptive_spec(budget=1, protocol=protocol, block_interval=0.0)
    result = run_protocol(spec)
    assert spec.byzantine_nodes == (0,)
    assert result.view_changes >= 1
    assert result.safety.consistent
    assert result.min_committed_height == spec.target_height


def test_adaptive_runs_are_deterministic():
    first = run_protocol(adaptive_spec(budget=2), recorder=TraceRecorder())
    second = run_protocol(adaptive_spec(budget=2), recorder=TraceRecorder())
    assert first.trace.fingerprint() == second.trace.fingerprint()


def test_victims_recorded_on_schedule_accounting():
    spec = adaptive_spec(budget=2)
    schedule = spec.fault_schedule
    assert schedule.byzantine_nodes() == ()
    assert schedule.max_byzantine() == 2
    assert schedule.dynamic_budget() == 2
    run_protocol(spec)
    assert schedule.byzantine_nodes() == (0, 1)
    assert schedule.liveness_exempt_nodes(end_time=0.0) == (0, 1)
    atom = schedule.faults[0]
    assert atom.victims == (0, 1)
    # The declarative description stays static: re-deploying the schedule
    # elsewhere starts with a fresh victim set.
    description = schedule.describe()
    assert description == [
        {"kind": "LeaderFollowingCrash", "node": -1, "budget": 2, "start": 1.0, "interval": 1.0}
    ]
    rebuilt = faults.schedule_from_dict(description)
    assert rebuilt.byzantine_nodes() == ()


def test_rerunning_the_same_schedule_does_not_accumulate_victims():
    spec = adaptive_spec(budget=1)
    first = run_protocol(spec)
    assert spec.byzantine_nodes == (0,)
    assert first.safety.consistent
    # Re-driving the *same* spec starts a fresh campaign: the controller
    # resets the atom's victims at session start, so a node honest in the
    # second run is never excluded from its safety/liveness accounting.
    second = run_protocol(spec)
    assert spec.byzantine_nodes == (0,)
    assert second.safety.consistent
    assert second.committed_heights == first.committed_heights


def test_controller_retires_when_nothing_will_run_again():
    spec = adaptive_spec(budget=2, target_height=1, block_interval=0.0)
    session = Session.from_spec(spec)
    assert len(session.controllers) == 1
    assert isinstance(session.controllers[0], LeaderFollowingController)
    session.run().finish()
    controller = session.controllers[0]
    # The run quiesced before the budget was spent; the controller must
    # report done rather than spin the loop forever.
    assert controller.next_wakeup(session) is None


def test_atom_validation():
    with pytest.raises(ValueError):
        LeaderFollowingCrash(budget=0)
    with pytest.raises(ValueError):
        LeaderFollowingCrash(interval=0.0)
    with pytest.raises(ValueError):
        LeaderFollowingCrash(start=-1.0)


# ------------------------------------------------------------- matrix axis
def test_adaptive_fault_is_a_library_entry():
    assert set(ADAPTIVE_FAULTS) <= set(FAULT_LIBRARY)
    schedule = FAULT_LIBRARY["adaptive-leader-crash"](5)
    assert schedule.dynamic_budget() == 1


def test_adaptive_cell_runs_green_under_the_full_invariant_battery():
    matrix = ScenarioMatrix(
        protocols=("eesmr", "sync-hotstuff"),
        fault_names=("adaptive-leader-crash",),
        media=("ble",),
        block_interval=2.0,
    )
    report = matrix.run()
    assert report.cells_run == 2
    assert report.ok, report.failures()
    for outcome in report.outcomes:
        assert outcome.spec.fault_schedule.byzantine_nodes() == (0,)


def test_adaptive_cells_shard_byte_identically_and_pickle_victims():
    matrix = ScenarioMatrix(
        protocols=("eesmr", "sync-hotstuff"),
        fault_names=("adaptive-leader-crash",),
        media=("ble",),
        block_interval=2.0,
    )
    serial = matrix.run(parallel=1)
    parallel = matrix.run(parallel=2)
    assert serial.ok and parallel.ok
    assert [o.evidence.trace.fingerprint() for o in serial.outcomes] == [
        o.evidence.trace.fingerprint() for o in parallel.outcomes
    ]
    # Victims recorded in the worker travel back with the cell outcome.
    assert all(
        o.spec.fault_schedule.byzantine_nodes() == (0,) for o in parallel.outcomes
    )


def test_budget_two_adaptive_cell_infeasible_on_the_ring_but_not_dense():
    matrix = ScenarioMatrix(
        protocols=("eesmr",),
        fault_names=("adaptive-leader-crash-f2",),
        media=("ble",),
        topologies=("ring-kcast", "fully-connected"),
        n=7,
        k=2,
        block_interval=2.0,
    )
    report = matrix.run()
    assert report.cells_run == 1
    assert report.cells_skipped == 1
    skip = report.skipped[0]
    assert skip.cell.topology == "ring-kcast"
    assert "adaptive budget 2" in skip.reason
    assert report.ok, report.failures()
