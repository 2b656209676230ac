"""Seed-determinism regression: identical spec + seed ⇒ byte-identical runs.

Every scale and performance PR regresses against this: if a change makes
two same-seed runs diverge — in the event trace, the metrics, or the
safety report — it has introduced nondeterminism into the simulation.
"""

import pytest

from repro.eval.runner import PROTOCOLS, DeploymentSpec, run_protocol
from repro.testkit.faults import crash_at, equivocate_at
from repro.testkit.trace import TraceRecorder


def run_traced(**kwargs):
    spec = DeploymentSpec(n=5, f=1, k=2, target_height=3, **kwargs)
    return run_protocol(spec, recorder=TraceRecorder())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_same_seed_produces_byte_identical_traces(protocol):
    first = run_traced(protocol=protocol, seed=17)
    second = run_traced(protocol=protocol, seed=17)
    assert first.trace.canonical_json() == second.trace.canonical_json()
    assert first.trace.fingerprint() == second.trace.fingerprint()


def test_same_seed_produces_identical_metrics_and_safety():
    first = run_traced(protocol="eesmr", seed=23)
    second = run_traced(protocol="eesmr", seed=23)
    assert first.energy.per_node_joules == second.energy.per_node_joules
    assert first.energy.correct_total_joules == second.energy.correct_total_joules
    assert first.network.physical_transmissions == second.network.physical_transmissions
    assert first.network.physical_bytes == second.network.physical_bytes
    assert first.sim_time == second.sim_time
    assert first.committed_heights == second.committed_heights
    assert first.safety.consistent == second.safety.consistent
    assert first.safety.common_prefix_height == second.safety.common_prefix_height
    assert first.safety.details == second.safety.details


def test_determinism_holds_under_fault_schedules():
    for schedule_factory in (lambda: crash_at(0, time=0.0), lambda: equivocate_at(0, 4)):
        first = run_traced(protocol="eesmr", seed=31, fault_schedule=schedule_factory())
        second = run_traced(protocol="eesmr", seed=31, fault_schedule=schedule_factory())
        assert first.trace.fingerprint() == second.trace.fingerprint()


def test_different_seeds_diverge():
    first = run_traced(protocol="eesmr", seed=1)
    second = run_traced(protocol="eesmr", seed=2)
    assert first.trace.fingerprint() != second.trace.fingerprint()


def test_different_media_diverge():
    first = run_traced(protocol="eesmr", seed=5, medium="ble")
    second = run_traced(protocol="eesmr", seed=5, medium="wifi")
    assert first.trace.fingerprint() != second.trace.fingerprint()
