"""Unit tests for the deployment spec, ``run_protocol`` and the topology/Δ stage functions."""

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.session import Session, SessionBuilder
from repro.session.builder import build_topology, compute_delta
from repro.testkit.trace import TraceRecorder
from tests.conftest import honest_spec
from tests.testkit.test_golden_fingerprints import GOLDEN


def test_spec_validation():
    with pytest.raises(ValueError):
        DeploymentSpec(protocol="pbft")
    with pytest.raises(ValueError):
        DeploymentSpec(protocol="eesmr", n=5, k=5)


@pytest.mark.parametrize(
    "section, text, message",
    [
        (
            "fault_schedule",
            '[{"kind": "SilentFrom", "node": 0},'
            ' {"kind": "PartitionWindow", "node": 2, "start": NaN, "heal": 5.0}]',
            "fault entry 1: partition start must be finite",
        ),
        (
            "fault_schedule",
            '[{"kind": "LossWindow", "node": 2, "start": 1.0, "end": Infinity, "loss": 0.5}]',
            "fault entry 0: impairment end must be finite",
        ),
        (
            "fault_schedule",
            '[{"kind": "CrashAt", "node": 2, "time": NaN}]',
            "fault entry 0: crash time must be finite",
        ),
        (
            "fault_schedule",
            '[{"kind": "LeaderFollowingCrash", "interval": Infinity}]',
            "fault entry 0: adaptive interval must be finite",
        ),
        ("impairment", '{"loss": 0.9, "start": NaN}', "impairment start must be finite"),
        ("impairment", '{"loss": 0.9, "end": NaN}', "impairment end must be finite"),
    ],
    ids=["partition-nan", "loss-window-inf", "crash-nan", "adaptive-inf", "spec-start", "spec-end"],
)
def test_from_dict_rejects_the_non_finite_numbers_json_parses(section, text, message):
    """``json.loads`` accepts ``NaN`` and ``Infinity``.  A spec carrying one
    where a time goes is refused where it is rebuilt, naming the field (and
    the schedule entry) — not when the event queue chokes on it, and not
    never, as a window that is silently never active."""
    import json

    data = {**DeploymentSpec().to_dict(), section: json.loads(text)}
    with pytest.raises(ValueError, match=message):
        DeploymentSpec.from_dict(data)


def test_build_topology_variants():
    ring = build_topology(DeploymentSpec(n=7, k=3, topology="ring-kcast"))
    assert ring.k == 3 and len(ring.nodes) == 7
    full = build_topology(DeploymentSpec(n=5, k=2, topology="fully-connected"))
    assert full.diameter() == 1
    uni = build_topology(DeploymentSpec(n=5, k=2, topology="unicast-ring"))
    assert all(e.degree == 1 for e in uni.edges)
    with pytest.raises(ValueError):
        build_topology(DeploymentSpec(n=5, k=2, topology="torus"))


def test_compute_delta_covers_diameter():
    spec = DeploymentSpec(n=9, k=2, hop_delay=1.0)
    topology = build_topology(spec)
    delta = compute_delta(spec, topology)
    assert delta >= topology.diameter() * spec.hop_delay
    explicit = DeploymentSpec(n=9, k=2, delta=42.0)
    assert compute_delta(explicit, topology) == 42.0


@pytest.mark.parametrize(
    "n, k, delta",
    [(25, 2, 14.0), (100, 2, 52.0), (7, 2, 5.0), (7, 3, 4.0), (5, 2, 4.0)],
)
def test_compute_delta_of_the_benchmark_topologies_is_pinned(n, k, delta):
    """Δ sets every timer: the ring k-casts `bench/` runs must keep these values."""
    spec = DeploymentSpec(n=n, f=1, k=k)
    assert compute_delta(spec, build_topology(spec)) == delta


def test_run_protocol_convenience_function():
    result = run_protocol(honest_spec(n=5, f=1, k=2, blocks=2, seed=51))
    assert result.committed_blocks == 2
    assert result.safety.consistent


def test_run_protocol_is_sugar_for_the_one_door():
    """``run_protocol`` takes ``SessionBuilder``'s keywords and runs the very
    session the builder would: same golden trace through either spelling."""
    spec = DeploymentSpec(protocol="eesmr", n=5, f=1, k=2, target_height=3, seed=17)
    sugar = run_protocol(spec, recorder=TraceRecorder())
    session = SessionBuilder(spec, recorder=TraceRecorder()).build()
    assert isinstance(session, Session)
    door = session.run_to_quiescence().finish()
    assert sugar.trace.fingerprint() == door.trace.fingerprint() == GOLDEN["eesmr"]
    with pytest.raises(TypeError):
        run_protocol(spec, not_a_builder_keyword=1)


def test_results_are_deterministic_for_same_seed():
    spec = honest_spec(n=6, f=1, k=2, blocks=3, seed=52)
    a = run_protocol(spec)
    b = run_protocol(spec)
    assert a.correct_energy_mj == pytest.approx(b.correct_energy_mj)
    assert a.network.physical_bytes == b.network.physical_bytes
    assert a.sim_time == pytest.approx(b.sim_time)


def test_different_seeds_change_timing_but_not_outcome():
    a = run_protocol(honest_spec(n=6, f=1, k=2, blocks=3, seed=1))
    b = run_protocol(honest_spec(n=6, f=1, k=2, blocks=3, seed=2))
    assert a.committed_blocks == b.committed_blocks == 3
    assert a.safety.consistent and b.safety.consistent


def test_charge_sleep_adds_energy():
    base = run_protocol(honest_spec(n=5, f=1, k=2, blocks=2, seed=53))
    slept = run_protocol(honest_spec(n=5, f=1, k=2, blocks=2, seed=53, charge_sleep=True))
    assert slept.correct_energy_mj > base.correct_energy_mj


def test_result_derived_metrics_consistent():
    result = run_protocol(honest_spec(n=5, f=1, k=2, blocks=2, seed=54))
    assert result.correct_energy_mj == pytest.approx(result.correct_energy_j * 1000)
    assert result.energy_per_block_mj == pytest.approx(result.correct_energy_mj / 2)
    assert result.leader_energy_mj > 0
    assert set(result.committed_heights) == set(range(5))


def test_jitter_disabled_gives_deterministic_hop_latency():
    result = run_protocol(honest_spec(n=5, f=1, k=2, blocks=2, seed=55, jitter=False))
    assert result.committed_blocks == 2
