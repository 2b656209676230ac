"""EESMR steady-state behaviour (honest leader)."""

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from tests.conftest import honest_spec


@pytest.fixture(scope="module")
def honest_run():
    return run_protocol(honest_spec(n=7, f=2, k=3, blocks=4, seed=11))


def test_all_correct_nodes_commit_target_height(honest_run):
    assert honest_run.min_committed_height == 4
    assert all(h == 4 for h in honest_run.committed_heights.values())


def test_no_view_change_with_correct_leader(honest_run):
    """Lemma B.1: a correct leader is never blamed."""
    assert honest_run.view_changes == 0
    assert honest_run.blames_sent == 0
    assert honest_run.equivocations_detected == 0


def test_logs_are_safe_and_identical(honest_run):
    assert honest_run.safety.consistent
    assert honest_run.safety.common_prefix_height == 4


def test_only_the_leader_signs_in_steady_state(honest_run):
    """O(1) signatures per block: only the leader produces signatures."""
    # Two signatures per proposal (viewSig + dataSig), 4 proposals.
    assert honest_run.sign_operations == 2 * 4


def test_verification_linear_in_n(honest_run):
    """O(n) verification per block: each non-leader verifies the proposal."""
    expected = 2 * (honest_run.spec.n - 1) * honest_run.committed_blocks
    assert honest_run.verify_operations == expected


def test_communication_one_flood_per_block(honest_run):
    """O(nd) communication per block: each node relays the proposal exactly once."""
    per_block = honest_run.network.physical_transmissions / honest_run.committed_blocks
    assert per_block == pytest.approx(honest_run.spec.n)


def test_commit_latency_is_4_delta_after_processing(honest_run):
    """The commit rule waits 4Δ; total latency stays well below a view change (21Δ)."""
    delta = honest_run.config.delta
    assert honest_run.sim_time >= 4 * delta


def test_leader_consumes_more_energy_than_replicas(honest_run):
    """Fig. 2c: the leader pays for signing, replicas only verify."""
    assert honest_run.leader_energy_per_block_mj > honest_run.replica_energy_per_block_mj


def test_energy_independent_of_n_for_fixed_k():
    """The paper's first observation: per-node steady-state energy depends on k, not n."""
    small = run_protocol(honest_spec(n=6, f=1, k=2, blocks=3, seed=12))
    large = run_protocol(honest_spec(n=12, f=1, k=2, blocks=3, seed=12))
    assert large.replica_energy_per_block_mj == pytest.approx(
        small.replica_energy_per_block_mj, rel=0.15
    )


def test_energy_grows_with_k():
    """Fig. 2c: per-node energy grows with the number of incoming k-cast edges."""
    narrow = run_protocol(honest_spec(n=9, f=1, k=2, blocks=3, seed=13))
    wide = run_protocol(honest_spec(n=9, f=3, k=6, blocks=3, seed=13))
    assert wide.replica_energy_per_block_mj > narrow.replica_energy_per_block_mj
    assert wide.leader_energy_per_block_mj > narrow.leader_energy_per_block_mj


def test_energy_grows_with_block_size():
    """Fig. 2d: bigger payloads cost more energy per SMR."""
    small = run_protocol(honest_spec(n=7, f=2, k=3, blocks=3, seed=14, command_payload_bytes=16))
    big = run_protocol(honest_spec(n=7, f=2, k=3, blocks=3, seed=14, command_payload_bytes=256))
    assert big.leader_energy_per_block_mj > small.leader_energy_per_block_mj


def test_commands_are_committed_in_proposal_order(honest_run):
    snapshots = honest_run.replica_snapshots
    assert all(s["blocks_committed"] == 4 for s in snapshots.values())


def test_block_interval_paces_proposals():
    paced = run_protocol(honest_spec(n=5, f=1, k=2, blocks=3, seed=15, block_interval=10.0))
    assert paced.min_committed_height == 3
    assert paced.sim_time >= 2 * 10.0


def test_a_long_out_of_order_stream_drains_without_recursion():
    """At n=25 with k=2 one delivery can fill a gap of hundreds of buffered
    proposals; accepting them is one loop, not one stack frame per block."""
    result = run_protocol(DeploymentSpec(protocol="eesmr", n=25, f=5, k=2, target_height=600, seed=7))
    assert all(height == 600 for height in result.committed_heights.values())
