"""Unit tests for the experiment runner."""

import pytest

from repro.eval.runner import DeploymentSpec, ProtocolRunner, run_protocol
from tests.conftest import honest_spec


def test_spec_validation():
    with pytest.raises(ValueError):
        DeploymentSpec(protocol="pbft")
    with pytest.raises(ValueError):
        DeploymentSpec(protocol="eesmr", n=5, k=5)


def test_build_topology_variants():
    runner = ProtocolRunner()
    ring = runner.build_topology(DeploymentSpec(n=7, k=3, topology="ring-kcast"))
    assert ring.k == 3 and len(ring.nodes) == 7
    full = runner.build_topology(DeploymentSpec(n=5, k=2, topology="fully-connected"))
    assert full.diameter() == 1
    uni = runner.build_topology(DeploymentSpec(n=5, k=2, topology="unicast-ring"))
    assert all(e.degree == 1 for e in uni.edges)
    with pytest.raises(ValueError):
        runner.build_topology(DeploymentSpec(n=5, k=2, topology="torus"))


def test_compute_delta_covers_diameter():
    runner = ProtocolRunner()
    spec = DeploymentSpec(n=9, k=2, hop_delay=1.0)
    topology = runner.build_topology(spec)
    delta = runner.compute_delta(spec, topology)
    assert delta >= topology.diameter() * spec.hop_delay
    explicit = DeploymentSpec(n=9, k=2, delta=42.0)
    assert runner.compute_delta(explicit, topology) == 42.0


@pytest.mark.parametrize(
    "n, k, delta",
    [(25, 2, 14.0), (100, 2, 52.0), (7, 2, 5.0), (7, 3, 4.0), (5, 2, 4.0)],
)
def test_compute_delta_of_the_benchmark_topologies_is_pinned(n, k, delta):
    """Δ sets every timer: the ring k-casts `bench/` runs must keep these values."""
    runner = ProtocolRunner()
    spec = DeploymentSpec(n=n, f=1, k=k)
    assert runner.compute_delta(spec, runner.build_topology(spec)) == delta


def test_run_protocol_convenience_function():
    result = run_protocol(honest_spec(n=5, f=1, k=2, blocks=2, seed=51))
    assert result.committed_blocks == 2
    assert result.safety.consistent


def test_results_are_deterministic_for_same_seed():
    spec = honest_spec(n=6, f=1, k=2, blocks=3, seed=52)
    a = ProtocolRunner().run(spec)
    b = ProtocolRunner().run(spec)
    assert a.correct_energy_mj == pytest.approx(b.correct_energy_mj)
    assert a.network.physical_bytes == b.network.physical_bytes
    assert a.sim_time == pytest.approx(b.sim_time)


def test_different_seeds_change_timing_but_not_outcome():
    a = ProtocolRunner().run(honest_spec(n=6, f=1, k=2, blocks=3, seed=1))
    b = ProtocolRunner().run(honest_spec(n=6, f=1, k=2, blocks=3, seed=2))
    assert a.committed_blocks == b.committed_blocks == 3
    assert a.safety.consistent and b.safety.consistent


def test_charge_sleep_adds_energy():
    base = ProtocolRunner().run(honest_spec(n=5, f=1, k=2, blocks=2, seed=53))
    slept = ProtocolRunner().run(honest_spec(n=5, f=1, k=2, blocks=2, seed=53, charge_sleep=True))
    assert slept.correct_energy_mj > base.correct_energy_mj


def test_result_derived_metrics_consistent():
    result = ProtocolRunner().run(honest_spec(n=5, f=1, k=2, blocks=2, seed=54))
    assert result.correct_energy_mj == pytest.approx(result.correct_energy_j * 1000)
    assert result.energy_per_block_mj == pytest.approx(result.correct_energy_mj / 2)
    assert result.leader_energy_mj > 0
    assert set(result.committed_heights) == set(range(5))


def test_jitter_disabled_gives_deterministic_hop_latency():
    result = ProtocolRunner().run(honest_spec(n=5, f=1, k=2, blocks=2, seed=55, jitter=False))
    assert result.committed_blocks == 2
