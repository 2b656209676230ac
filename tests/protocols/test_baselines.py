"""Sync HotStuff, OptSync and trusted-baseline protocol behaviour."""

import pytest

from repro.core.adversary import FaultPlan
from repro.energy.meter import EnergyCategory
from repro.eval.runner import DeploymentSpec, run_protocol
from repro.session import Session
from tests.conftest import honest_spec


@pytest.fixture(scope="module")
def shs_run():
    return run_protocol(honest_spec(protocol="sync-hotstuff", n=7, f=2, k=3, blocks=4, seed=41))


@pytest.fixture(scope="module")
def eesmr_run():
    return run_protocol(honest_spec(protocol="eesmr", n=7, f=2, k=3, blocks=4, seed=41))


def test_sync_hotstuff_commits_and_is_safe(shs_run):
    assert shs_run.min_committed_height == 4
    assert shs_run.safety.consistent
    assert shs_run.view_changes == 0


def test_sync_hotstuff_every_node_signs_votes(shs_run):
    """O(n) signatures per block: every node votes."""
    assert shs_run.sign_operations > 2 * shs_run.committed_blocks * (shs_run.spec.n - 1)


def test_sync_hotstuff_verification_superlinear(shs_run, eesmr_run):
    """Certificate checking makes Sync HotStuff verify far more than EESMR."""
    assert shs_run.verify_operations > 3 * eesmr_run.verify_operations


def test_sync_hotstuff_more_communication_than_eesmr(shs_run, eesmr_run):
    assert shs_run.network.physical_transmissions > eesmr_run.network.physical_transmissions
    assert shs_run.network.physical_bytes > eesmr_run.network.physical_bytes


def test_eesmr_steady_state_cheaper_than_sync_hotstuff(shs_run, eesmr_run):
    """The headline result: EESMR wins the failure-free case."""
    assert eesmr_run.energy_per_block_mj < shs_run.energy_per_block_mj
    assert eesmr_run.leader_energy_per_block_mj < shs_run.leader_energy_per_block_mj


def test_sync_hotstuff_crashed_leader_view_change_recovers():
    spec = DeploymentSpec(
        protocol="sync-hotstuff",
        n=7,
        f=2,
        k=3,
        target_height=3,
        seed=42,
        fault_plan=FaultPlan(faulty=(0,), behaviour="crash", crash_time=0.0),
    )
    result = run_protocol(spec)
    assert result.min_committed_height == 3
    assert result.safety.consistent
    assert result.view_changes >= 1


def test_sync_hotstuff_view_change_cheaper_than_eesmr_view_change():
    """The other half of the trade-off: EESMR pays more during a view change."""
    shs = run_protocol(
        DeploymentSpec(
            protocol="sync-hotstuff",
            n=9,
            f=2,
            k=3,
            target_height=3,
            seed=43,
            fault_plan=FaultPlan(faulty=(0,), behaviour="crash", crash_time=0.0),
        )
    )
    eesmr = run_protocol(
        DeploymentSpec(
            protocol="eesmr",
            n=9,
            f=2,
            k=3,
            target_height=3,
            seed=43,
            fault_plan=FaultPlan(faulty=(0,), behaviour="silent_leader"),
        )
    )
    assert eesmr.correct_energy_mj > shs.correct_energy_mj


def test_optsync_commits_and_costs_at_least_sync_hotstuff():
    opt = run_protocol(honest_spec(protocol="optsync", n=8, f=1, k=3, blocks=3, seed=44))
    shs = run_protocol(honest_spec(protocol="sync-hotstuff", n=8, f=1, k=3, blocks=3, seed=44))
    assert opt.min_committed_height == 3
    assert opt.safety.consistent
    assert opt.verify_operations >= shs.verify_operations
    assert opt.energy_per_block_mj >= shs.energy_per_block_mj


@pytest.mark.parametrize("protocol", ["sync-hotstuff", "optsync"])
def test_a_carried_certificate_frees_its_vote_set(protocol):
    """A replica drops a block's partial vote set once a proposal brings its
    certificate; only the last block's, which no proposal carries, stays."""
    spec = DeploymentSpec(protocol=protocol, n=25, f=5, k=2, target_height=50, seed=7)
    session = Session.from_spec(spec).run()
    replicas = list(session.replicas.values())
    tip = replicas[0].log.committed_blocks()[-1]
    assert tip.height == 50
    for replica in replicas:
        assert set(replica.votes) <= {tip.block_hash}, replica.pid


def test_trusted_baseline_commits_all_blocks():
    result = run_protocol(honest_spec(protocol="trusted-baseline", n=6, f=2, k=2, blocks=4, seed=45))
    assert result.min_committed_height == 4
    assert result.safety.consistent


def test_trusted_baseline_energy_dominated_by_uplink_and_signing():
    """The baseline's cost per node is the expensive 4G round trip plus request signing."""
    result = run_protocol(honest_spec(protocol="trusted-baseline", n=6, f=2, k=2, blocks=4, seed=46))
    breakdown = result.energy.breakdown
    radio = breakdown.get(EnergyCategory.TRANSMIT) + breakdown.get(EnergyCategory.RECEIVE)
    # The 4G round trips are a macroscopic share of the total energy (far
    # beyond what the same traffic would cost on BLE).
    assert radio > 0.3 * breakdown.total
    assert radio > 1.0  # Joules


def test_trusted_baseline_no_inter_replica_traffic():
    result = run_protocol(honest_spec(protocol="trusted-baseline", n=6, f=2, k=2, blocks=3, seed=47))
    # All traffic is unicasts to/from the control node; no floods at all.
    assert result.network.broadcasts == 0
    assert result.network.unicasts > 0


def test_trusted_baseline_commits_reordered_orders():
    """Retransmission latency on a lossy wire can deliver TB_ORDERs out of
    height order; the replica buffers dangling blocks and commits them once
    their ancestry arrives instead of stranding the suffix forever."""
    from repro.net.impairment import ImpairmentSpec

    spec = DeploymentSpec(
        protocol="trusted-baseline",
        n=5,
        f=1,
        k=2,
        target_height=4,
        medium="ble",
        impairment=ImpairmentSpec(reorder=1.0),
    )
    result = run_protocol(spec)
    assert result.min_committed_height == 4
    assert result.safety.consistent


def test_a_fault_plan_on_the_trusted_baseline_is_armed():
    """A plan is lowered to the schedule every protocol reads, so a crashed
    leaf stops and never relays (it used to commit every block: the trusted
    baseline armed only a schedule, and its plan was dropped)."""
    from repro.session import Session

    spec = DeploymentSpec(
        protocol="trusted-baseline", n=5, f=1, k=2, target_height=4, seed=3,
        fault_plan=FaultPlan(faulty=(0,), behaviour="crash", crash_time=1.0),
    )  # fmt: skip
    session = Session.from_spec(spec).run()
    result = session.finish()
    assert session.replicas[0].crashed
    assert session.network.relay_denied(0)
    assert result.committed_heights[0] == 0
    assert result.min_committed_height == 4 and result.safety.consistent
