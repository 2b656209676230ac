"""Unit tests for the adversary fault plans and replica classes."""

import pytest

from repro.core.adversary import (
    ALLOWED_BEHAVIOURS,
    BEHAVIOUR_CLASSES,
    CrashReplica,
    EquivocatingLeaderReplica,
    FaultPlan,
    SilentLeaderReplica,
    SilentReplica,
    behaviour_class,
    replica_class_for,
)
from repro.core.eesmr.replica import EesmrReplica


def test_fault_plan_defaults():
    plan = FaultPlan()
    assert plan.faulty == ()


def test_replica_class_for_honest_node():
    cls, kwargs = replica_class_for(FaultPlan(faulty=(2,), behaviour="crash"), pid=0)
    assert cls is EesmrReplica
    assert kwargs == {}


def test_replica_class_for_crash():
    cls, kwargs = replica_class_for(FaultPlan(faulty=(2,), behaviour="crash", crash_time=5.0), pid=2)
    assert cls is CrashReplica
    assert kwargs == {"crash_time": 5.0}


def test_replica_class_for_silent_leader():
    cls, kwargs = replica_class_for(
        FaultPlan(faulty=(0,), behaviour="silent_leader", trigger_round=4), pid=0
    )
    assert cls is SilentLeaderReplica
    assert kwargs == {"trigger_round": 4}


def test_replica_class_for_equivocate():
    cls, kwargs = replica_class_for(FaultPlan(faulty=(0,), behaviour="equivocate"), pid=0)
    assert cls is EquivocatingLeaderReplica


def test_replica_class_for_silent():
    cls, kwargs = replica_class_for(FaultPlan(faulty=(1,), behaviour="silent"), pid=1)
    assert cls is SilentReplica
    assert kwargs == {}


def test_unknown_behaviour_raises():
    with pytest.raises(ValueError):
        replica_class_for(FaultPlan(faulty=(1,), behaviour="teleport"), pid=1)


def test_misspelled_behaviour_rejected_at_construction():
    """A typo must fail loudly instead of silently running an honest node."""
    with pytest.raises(ValueError, match="unknown adversary behaviour 'equivocat'"):
        FaultPlan(faulty=(0,), behaviour="equivocat")


def test_every_allowed_behaviour_constructs():
    for behaviour in ALLOWED_BEHAVIOURS:
        plan = FaultPlan(faulty=(1,), behaviour=behaviour)
        cls, _ = replica_class_for(plan, pid=1)
        assert cls is BEHAVIOUR_CLASSES[behaviour]


def test_behaviour_class_lookup_matches_allowed_set():
    assert set(ALLOWED_BEHAVIOURS) == set(BEHAVIOUR_CLASSES)
    with pytest.raises(ValueError):
        behaviour_class("gremlin")


def test_negative_crash_time_rejected():
    with pytest.raises(ValueError, match="crash_time"):
        FaultPlan(faulty=(0,), crash_time=-1.0)
