"""Unit tests for the adversary fault plans, their lowering and replica classes."""

import pytest

from repro.core.adversary import (
    ALLOWED_BEHAVIOURS,
    BEHAVIOUR_CLASSES,
    CrashReplica,
    EquivocatingLeaderReplica,
    FaultPlan,
    SilentLeaderReplica,
    SilentReplica,
)
from repro.eval.runner import DeploymentSpec
from repro.net.impairment import SpecError
from repro.testkit.faults import (
    PLAN_ATOMS,
    CrashAt,
    EquivocateAt,
    FaultSchedule,
    SilentFrom,
    StallAt,
)


def replica_behaviour(plan: FaultPlan, pid: int):
    """What the session builder reads for ``pid``: the lowered schedule's
    ``(behaviour, kwargs)``, or ``None`` for an honest node."""
    return FaultSchedule.from_plan(plan).replica_behaviour(pid)


def test_fault_plan_defaults():
    plan = FaultPlan()
    assert plan.faulty == ()


def test_replica_class_for_honest_node():
    assert replica_behaviour(FaultPlan(faulty=(2,), behaviour="crash"), pid=0) is None


def test_replica_class_for_crash():
    name, kwargs = replica_behaviour(FaultPlan(faulty=(2,), behaviour="crash", crash_time=5.0), 2)
    assert BEHAVIOUR_CLASSES[name] is CrashReplica
    assert kwargs == {"crash_time": 5.0}


def test_replica_class_for_silent_leader():
    name, kwargs = replica_behaviour(
        FaultPlan(faulty=(0,), behaviour="silent_leader", trigger_round=4), pid=0
    )
    assert BEHAVIOUR_CLASSES[name] is SilentLeaderReplica
    assert kwargs == {"trigger_round": 4}


def test_replica_class_for_equivocate():
    name, kwargs = replica_behaviour(FaultPlan(faulty=(0,), behaviour="equivocate"), pid=0)
    assert BEHAVIOUR_CLASSES[name] is EquivocatingLeaderReplica
    assert kwargs == {"trigger_round": 3}


def test_replica_class_for_silent():
    name, kwargs = replica_behaviour(FaultPlan(faulty=(1,), behaviour="silent"), pid=1)
    assert BEHAVIOUR_CLASSES[name] is SilentReplica
    assert kwargs == {}


def test_unknown_behaviour_raises():
    with pytest.raises(SpecError, match="^behaviour: "):
        FaultPlan(faulty=(1,), behaviour="teleport")


def test_misspelled_behaviour_rejected_at_construction():
    """A typo must fail loudly instead of silently running an honest node."""
    with pytest.raises(ValueError, match="unknown adversary behaviour 'equivocat'"):
        FaultPlan(faulty=(0,), behaviour="equivocat")


def test_every_allowed_behaviour_constructs():
    for behaviour in ALLOWED_BEHAVIOURS:
        plan = FaultPlan(faulty=(1,), behaviour=behaviour)
        name, _ = replica_behaviour(plan, pid=1)
        assert name == behaviour
        assert DeploymentSpec(n=5, fault_plan=plan).byzantine_nodes == (1,)


def test_behaviour_class_lookup_matches_allowed_set():
    """Every behaviour a plan may name lowers to an atom, and every atom's
    behaviour has a replica class: the builder's lookup cannot miss."""
    assert set(ALLOWED_BEHAVIOURS) == set(BEHAVIOUR_CLASSES) == set(PLAN_ATOMS)
    for behaviour, (atom, _) in PLAN_ATOMS.items():
        assert atom(0).behaviour()[0] == behaviour


def test_negative_crash_time_rejected():
    with pytest.raises(ValueError, match="crash_time"):
        FaultPlan(faulty=(0,), crash_time=-1.0)


# ------------------------------------------------------------------ lowering
@pytest.mark.parametrize(
    "plan, atoms",
    [
        (
            FaultPlan(faulty=(3, 1), behaviour="crash", crash_time=2.5, trigger_round=6),
            [CrashAt(3, 2.5), CrashAt(1, 2.5)],
        ),
        (
            FaultPlan(faulty=(3, 1), behaviour="silent_leader", crash_time=2.5, trigger_round=6),
            [StallAt(3, 6, baseline_failstop=2.5), StallAt(1, 6, baseline_failstop=2.5)],
        ),
        (
            FaultPlan(faulty=(3, 1), behaviour="equivocate", crash_time=2.5, trigger_round=6),
            [EquivocateAt(3, 6, baseline_failstop=2.5), EquivocateAt(1, 6, baseline_failstop=2.5)],
        ),
        (
            FaultPlan(faulty=(3, 1), behaviour="silent", trigger_round=6),
            [SilentFrom(3), SilentFrom(1)],
        ),
    ],
    ids=lambda value: value.behaviour if isinstance(value, FaultPlan) else "",
)
def test_a_plan_lowers_to_one_atom_per_faulty_node(plan, atoms):
    """The lowering table, pinned: ``crash_time`` is the crash instant or the
    baselines' fail-stop, ``trigger_round`` the leader's misbehaving round."""
    assert list(FaultSchedule.from_plan(plan).faults) == atoms
    spec = DeploymentSpec(n=5, fault_plan=plan)
    assert list(spec.fault_schedule.faults) == atoms
    assert "fault_plan" not in spec.to_dict()


def test_an_empty_plan_is_a_fault_free_spec():
    assert DeploymentSpec(fault_plan=FaultPlan()).fault_schedule is None
