"""Property-based end-to-end tests: SMR safety and liveness over random deployments.

These are the reproduction's strongest checks: for randomly drawn system
sizes, k-cast degrees, payloads, seeds and fault behaviours, every run must
preserve Definition 2.1 safety, and runs whose fault count respects the
connectivity bound must also reach the target height (liveness).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.adversary import FaultPlan
from repro.eval.runner import DeploymentSpec, run_protocol


_COMMON_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def honest_specs(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    k = draw(st.integers(min_value=2, max_value=min(4, n - 1)))
    f = draw(st.integers(min_value=0, max_value=min(k - 1, (n - 1) // 2)))
    return DeploymentSpec(
        protocol=draw(st.sampled_from(["eesmr", "sync-hotstuff"])),
        n=n,
        f=f,
        k=k,
        target_height=draw(st.integers(min_value=1, max_value=3)),
        command_payload_bytes=draw(st.sampled_from([16, 64, 128])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


@st.composite
def faulty_leader_specs(draw):
    n = draw(st.integers(min_value=5, max_value=9))
    k = draw(st.integers(min_value=2, max_value=min(4, n - 1)))
    f = draw(st.integers(min_value=1, max_value=min(k - 1, (n - 1) // 2)))
    behaviour = draw(st.sampled_from(["silent_leader", "equivocate", "crash"]))
    return DeploymentSpec(
        protocol="eesmr",
        n=n,
        f=f,
        k=k,
        target_height=draw(st.integers(min_value=1, max_value=2)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        fault_plan=FaultPlan(faulty=(0,), behaviour=behaviour, trigger_round=3),
    )


@given(honest_specs())
@settings(**_COMMON_SETTINGS)
def test_honest_runs_commit_target_and_stay_safe(spec):
    result = run_protocol(spec)
    assert result.safety.consistent
    assert result.min_committed_height == spec.target_height
    assert result.view_changes == 0


@given(faulty_leader_specs())
@settings(**_COMMON_SETTINGS)
def test_faulty_leader_runs_stay_safe_and_recover(spec):
    result = run_protocol(spec)
    assert result.safety.consistent
    # Liveness: every correct node commits at least the workload target.
    # (After a view change the new leader may anchor one extra block.)
    assert result.min_committed_height >= spec.target_height
    if spec.fault_plan.behaviour in ("silent_leader", "equivocate"):
        assert result.view_changes >= 1
