"""Budget-aware provisioning: adaptive schedules must fit the spec's f.

An adaptive atom decides its victims mid-run, so a spec that provisions
``f`` below the schedule's worst-case Byzantine count (static targets
plus adaptive budgets) would run with quorum sizes sized for a smaller
adversary than the one actually deployed — and any resulting "violation"
would be a provisioning artifact, not a finding.  The session builder
rejects such specs when it arms the faults, with a ``SpecError`` at
``f`` (a ``ValueError``) and an actionable message; the
fuzzer's ``FuzzConfig.spec_for`` provisions ``f = max_byzantine()`` so
generated schedules never trip it.
"""

import pytest

from repro.eval.runner import DeploymentSpec
from repro.session import Session
from repro.testkit.faults import CrashAt, leader_following_crash


def spec_with(budget: int, f: int) -> DeploymentSpec:
    return DeploymentSpec(
        protocol="eesmr",
        n=7,
        f=f,
        k=3,
        topology="fully-connected",
        target_height=3,
        seed=5,
        block_interval=2.0,
        fault_schedule=leader_following_crash(budget=budget, start=1.0, interval=1.0),
    )


def test_underprovisioned_adaptive_budget_is_rejected_at_build_time():
    with pytest.raises(ValueError, match="raise f to at least 2"):
        Session.from_spec(spec_with(budget=2, f=1))


def test_static_atoms_count_against_the_budget_too():
    schedule = leader_following_crash(budget=1, start=1.0, interval=1.0).add(
        CrashAt(6, time=2.0)
    )
    spec = DeploymentSpec(
        protocol="eesmr",
        n=7,
        f=1,
        k=3,
        topology="fully-connected",
        target_height=3,
        seed=5,
        block_interval=2.0,
        fault_schedule=schedule,
    )
    with pytest.raises(ValueError, match="adaptive\n?.*budget included"):
        Session.from_spec(spec)


def test_correctly_provisioned_adaptive_spec_builds_and_runs():
    session = Session.from_spec(spec_with(budget=2, f=2))
    result = session.run_to_quiescence().finish()
    assert result.safety.consistent
