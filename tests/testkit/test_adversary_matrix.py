"""Every adversary behaviour under every protocol.

The paper's three adversarial scenarios (stalling leader, equivocating
leader, silent relays) plus fail-stop, crossed with the three replicated
protocols.  Each cell asserts the *kind* of view change the behaviour must
trigger and that safety and liveness are never violated.

For the baseline protocols Byzantine leader behaviours are modelled as
fail-stop (as in the seed experiment runner), so their expected view
change is always the crash-style one.
"""

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.testkit.faults import crash_at, equivocate_at, silent, stall_at
from repro.testkit.invariants import Evidence, assert_all
from repro.testkit.trace import TraceRecorder

REPLICATED = ("eesmr", "sync-hotstuff", "optsync")

#: behaviour name -> (schedule builder, leader fault?)
BEHAVIOURS = {
    "crash": (lambda n: crash_at(0, time=0.0), True),
    "silent_leader": (lambda n: stall_at(0, round_number=4), True),
    "equivocate": (lambda n: equivocate_at(0, round_number=4), True),
    "silent": (lambda n: silent(n - 1), False),
}


def run_behaviour(protocol: str, behaviour: str):
    builder, _ = BEHAVIOURS[behaviour]
    spec = DeploymentSpec(
        protocol=protocol, n=5, f=1, k=2, target_height=3, seed=7,
        fault_schedule=builder(5),
    )
    result = run_protocol(spec, recorder=TraceRecorder())
    return spec, result


@pytest.mark.parametrize("protocol", REPLICATED)
@pytest.mark.parametrize("behaviour", sorted(BEHAVIOURS))
def test_behaviour_preserves_safety_and_liveness(protocol, behaviour):
    spec, result = run_behaviour(protocol, behaviour)
    assert result.safety.consistent, f"{protocol}×{behaviour} violated safety"
    assert result.min_committed_height >= spec.target_height
    assert_all(Evidence(spec=spec, result=result, trace=result.trace))


@pytest.mark.parametrize("protocol", REPLICATED)
@pytest.mark.parametrize("behaviour", ["crash", "silent_leader", "equivocate"])
def test_leader_faults_trigger_exactly_one_view_change(protocol, behaviour):
    _, result = run_behaviour(protocol, behaviour)
    assert result.view_changes == 1, (
        f"{protocol}×{behaviour}: expected one view change, saw {result.view_changes}"
    )


@pytest.mark.parametrize("protocol", REPLICATED)
def test_silent_replica_never_forces_a_view_change(protocol):
    _, result = run_behaviour(protocol, "silent")
    assert result.view_changes == 0


def test_eesmr_equivocation_takes_the_byzantine_view_change():
    _, result = run_behaviour("eesmr", "equivocate")
    assert result.equivocations_detected > 0
    assert result.blames_sent > 0  # blames carry the equivocation proof


@pytest.mark.parametrize("behaviour", ["crash", "silent_leader"])
def test_eesmr_no_progress_takes_the_crash_style_view_change(behaviour):
    _, result = run_behaviour("eesmr", behaviour)
    assert result.equivocations_detected == 0
    assert result.blames_sent >= 2  # an f+1 blame certificate was formed


@pytest.mark.parametrize("protocol", ("sync-hotstuff", "optsync"))
@pytest.mark.parametrize("behaviour", ["silent_leader", "equivocate"])
def test_baselines_model_byzantine_leaders_as_fail_stop(protocol, behaviour):
    _, result = run_behaviour(protocol, behaviour)
    # No equivocation is ever observed because the node simply stops.
    assert result.equivocations_detected == 0
    assert result.view_changes == 1


def test_optsync_recovers_from_leader_fail_stop_regression():
    """Regression for the new-view livelock: an OptSync leader fail-stop used
    to spin view changes forever because no non-leader node held a
    certificate (3n/4+1 quorum, partial vote forwarding) and the new leader
    refused to extend its own lock."""
    spec, result = run_behaviour("optsync", "crash")
    assert result.view_changes >= 1
    assert result.min_committed_height >= spec.target_height
    assert result.sim_time < 200.0  # quiesces promptly instead of livelocking
