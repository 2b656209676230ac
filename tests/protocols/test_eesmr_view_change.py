"""EESMR view-change behaviour under faulty leaders."""

import pytest

from repro.core.adversary import FaultPlan
from repro.eval.runner import DeploymentSpec, run_protocol
from tests.conftest import faulty_spec, honest_spec


@pytest.fixture(scope="module")
def silent_leader_run():
    return run_protocol(faulty_spec("silent_leader", n=7, f=2, k=3, blocks=4, seed=31))


@pytest.fixture(scope="module")
def equivocating_leader_run():
    spec = DeploymentSpec(
        protocol="eesmr",
        n=7,
        f=2,
        k=3,
        target_height=4,
        seed=32,
        block_interval=6.0,
        fault_plan=FaultPlan(faulty=(0,), behaviour="equivocate", trigger_round=4),
    )
    return run_protocol(spec)


def test_silent_leader_triggers_exactly_one_view_change(silent_leader_run):
    assert silent_leader_run.view_changes == 1


def test_silent_leader_liveness_recovers(silent_leader_run):
    """Liveness (Theorem B.5): the new leader finishes the workload."""
    assert silent_leader_run.min_committed_height == 4
    assert silent_leader_run.safety.consistent


def test_silent_leader_every_correct_node_blames(silent_leader_run):
    assert silent_leader_run.blames_sent >= silent_leader_run.spec.n - 1


def test_new_leader_is_round_robin_successor(silent_leader_run):
    snapshots = silent_leader_run.replica_snapshots
    views = {pid: snap["view"] for pid, snap in snapshots.items() if pid != 0}
    assert all(view == 2 for view in views.values())


def test_equivocation_detected_by_all_correct_nodes(equivocating_leader_run):
    assert equivocating_leader_run.equivocations_detected >= equivocating_leader_run.spec.n - 1


def test_equivocation_never_commits_conflicting_blocks(equivocating_leader_run):
    """Commit safety (Lemma B.2): the 4Δ quiet period catches the equivocation."""
    assert equivocating_leader_run.safety.consistent


def test_blocks_before_equivocation_survive_the_view_change(equivocating_leader_run):
    """Unique extensibility (Lemma B.3): committed blocks stay committed."""
    assert equivocating_leader_run.min_committed_height == 4
    assert equivocating_leader_run.view_changes == 1


def test_view_change_more_expensive_than_steady_state():
    """The paper's trade-off: the view change converts implicit votes to explicit ones."""
    honest = run_protocol(honest_spec(n=7, f=2, k=3, blocks=4, seed=33))
    faulty = run_protocol(faulty_spec("silent_leader", n=7, f=2, k=3, blocks=4, seed=33))
    assert faulty.correct_energy_mj > honest.correct_energy_mj
    assert faulty.verify_operations > honest.verify_operations
    assert faulty.sign_operations > honest.sign_operations


def test_crashed_non_leader_does_not_disturb_progress():
    spec = DeploymentSpec(
        protocol="eesmr",
        n=7,
        f=2,
        k=3,
        target_height=4,
        seed=34,
        fault_plan=FaultPlan(faulty=(3,), behaviour="crash", crash_time=0.0),
    )
    result = run_protocol(spec)
    assert result.view_changes == 0
    assert result.min_committed_height == 4
    assert result.safety.consistent


def test_silent_non_leader_replica_does_not_disturb_progress():
    spec = DeploymentSpec(
        protocol="eesmr",
        n=7,
        f=2,
        k=3,
        target_height=4,
        seed=35,
        fault_plan=FaultPlan(faulty=(4,), behaviour="silent"),
    )
    result = run_protocol(spec)
    assert result.min_committed_height == 4
    assert result.safety.consistent


def test_two_consecutive_faulty_leaders_are_survived():
    """If leaders of views 1 and 2 are both faulty, a third view change succeeds."""
    spec = DeploymentSpec(
        protocol="eesmr",
        n=7,
        f=2,
        k=3,
        target_height=3,
        seed=36,
        fault_plan=FaultPlan(faulty=(0, 1), behaviour="crash", crash_time=0.0),
    )
    result = run_protocol(spec)
    assert result.min_committed_height == 3
    assert result.safety.consistent
    assert result.view_changes >= 2


def test_maximum_fault_tolerance_f_less_than_k():
    """With f = k - 1 crashed nodes (the connectivity bound) progress still holds."""
    spec = DeploymentSpec(
        protocol="eesmr",
        n=9,
        f=3,
        k=4,
        target_height=3,
        seed=37,
        fault_plan=FaultPlan(faulty=(1, 3, 5), behaviour="crash", crash_time=0.0),
    )
    result = run_protocol(spec)
    assert result.min_committed_height == 3
    assert result.safety.consistent
