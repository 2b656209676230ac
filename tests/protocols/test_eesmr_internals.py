"""White-box tests for EESMR replica internals (buffering, locks, certificates).

The blame phase and the message dispatch live in ``LeaderReplica``; their
tests run over every class that inherits them (``LEADER_CLASSES``).
"""

import dataclasses

import pytest

from repro.core.baselines.optsync import OptSyncReplica
from repro.core.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.core.config import ProtocolConfig
from repro.core.eesmr.replica import EesmrReplica
from repro.core.messages import EquivocationProof, MessageType, make_message, make_view_qc
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import make_scheme
from repro.energy.ledger import ClusterEnergyLedger
from repro.net.network import SimulatedNetwork
from repro.net.topology import ring_kcast_topology
from repro.sim.rng import SeededRNG
from repro.sim.scheduler import Simulator


LEADER_CLASSES = [EesmrReplica, SyncHotStuffReplica, OptSyncReplica]
every_leader_class = pytest.mark.parametrize(
    "replica_class", LEADER_CLASSES, ids=["eesmr", "sync-hotstuff", "optsync"]
)


def build_cluster(n=5, f=1, k=2, target=3, delta=8.0, seed=9, replica_class=EesmrReplica):
    """A hand-wired cluster (no runner) for white-box manipulation."""
    sim = Simulator()
    topology = ring_kcast_topology(n, k)
    ledger = ClusterEnergyLedger(topology.nodes)
    network = SimulatedNetwork(sim, topology, ledger, rng=SeededRNG(seed), hop_delay=1.0)
    keystore = KeyStore(seed=seed)
    keystore.generate(topology.nodes)
    scheme = make_scheme("rsa-1024", keystore=keystore)
    config = ProtocolConfig(n=n, f=f, delta=delta, target_height=target)
    replicas = {}
    for pid in range(n):
        replica = replica_class(sim, pid, config, scheme, network, ledger.meter(pid))
        replicas[pid] = replica
        network.register(replica)
    return sim, scheme, config, replicas


def test_initial_state_matches_paper_defaults():
    _, _, _, replicas = build_cluster()
    replica = replicas[1]
    assert replica.v_cur == 1
    assert replica.r_cur == 3
    assert replica.b_lock.is_genesis
    assert replica.b_com.is_genesis
    assert not replica.in_view_change


def test_leader_of_view_one_is_node_zero():
    _, _, _, replicas = build_cluster()
    assert replicas[0].is_leader(1)
    assert not replicas[1].is_leader(1)
    assert replicas[1].is_leader(2)


def test_proposal_from_non_leader_is_ignored():
    sim, scheme, _, replicas = build_cluster()
    replica = replicas[2]
    from repro.core.blocks import make_block

    block = make_block(replica.blocks.genesis, 3, 1, 3, [])
    forged = make_message(scheme, 3, MessageType.PROPOSE, 1, block, round_number=3)
    replica.on_message(3, forged)
    assert replica.b_lock.is_genesis
    assert replica.stats.proposals_received == 0


def test_future_round_proposal_is_buffered_until_current():
    sim, scheme, _, replicas = build_cluster()
    replica = replicas[2]
    from repro.core.blocks import make_block

    first = make_block(replica.blocks.genesis, 0, 1, 3, [])
    second = make_block(first, 0, 1, 4, [])
    msg_round4 = make_message(scheme, 0, MessageType.PROPOSE, 1, second, round_number=4)
    msg_round3 = make_message(scheme, 0, MessageType.PROPOSE, 1, first, round_number=3)
    replica.on_message(0, msg_round4)
    assert replica.r_cur == 3  # buffered, not applied
    replica.on_message(0, msg_round3)
    # Both applied in order once the gap is filled.
    assert replica.r_cur == 5
    assert replica.b_lock.block_hash == second.block_hash


def test_proposal_not_extending_lock_is_rejected():
    sim, scheme, _, replicas = build_cluster()
    replica = replicas[2]
    from repro.core.blocks import make_block

    good = make_block(replica.blocks.genesis, 0, 1, 3, [])
    replica.on_message(0, make_message(scheme, 0, MessageType.PROPOSE, 1, good, round_number=3))
    assert replica.b_lock.block_hash == good.block_hash
    # A round-4 proposal forking from genesis (not extending the lock) is refused.
    fork = make_block(replica.blocks.genesis, 0, 1, 4, [])
    replica.on_message(0, make_message(scheme, 0, MessageType.PROPOSE, 1, fork, round_number=4))
    assert replica.b_lock.block_hash == good.block_hash
    assert replica.r_cur == 4


def test_equivocating_proposals_cancel_commit_timers_and_blame():
    sim, scheme, _, replicas = build_cluster()
    replica = replicas[2]
    from repro.core.blocks import make_block
    from repro.core.types import Command

    block_a = make_block(replica.blocks.genesis, 0, 1, 3, [Command("a")])
    block_b = make_block(replica.blocks.genesis, 0, 1, 3, [Command("b")])
    replica.on_message(0, make_message(scheme, 0, MessageType.PROPOSE, 1, block_a, round_number=3))
    assert len(replica.commit_timers) == 1
    replica.on_message(0, make_message(scheme, 0, MessageType.PROPOSE, 1, block_b, round_number=3))
    assert replica.stats.equivocations_detected == 1
    assert len(replica.commit_timers) == 0
    assert 1 in replica.blamed_views
    assert replica.in_view_change  # equivocation fast path quits the view


@pytest.mark.parametrize(
    "replica_class", [SyncHotStuffReplica, OptSyncReplica], ids=["sync-hotstuff", "optsync"]
)
def test_conflicting_signed_proposals_stop_commits_and_blame_once(replica_class):
    """No fault atom makes a Sync HotStuff / OptSync leader equivocate (every
    Byzantine class is an EESMR replica), so the safety path is driven by
    hand: two signed SHS_PROPOSEs for one (view, height) from the leader."""
    from repro.core.blocks import make_block
    from repro.core.messages import CertifiedBlock
    from repro.core.types import Command

    sim, scheme, _, replicas = build_cluster(replica_class=replica_class)
    replica = replicas[2]
    flooded = []
    replica.broadcast = flooded.append  # type: ignore[assignment]
    genesis = replica.blocks.genesis
    proposals = [
        make_message(
            scheme,
            0,
            MessageType.SHS_PROPOSE,
            1,
            CertifiedBlock(make_block(genesis, 0, 1, 1, [Command(name)]), None),
            round_number=1,
        )
        for name in ("a", "b", "c")
    ]
    replica.on_message(0, proposals[0])
    assert len(replica.commit_timers) == 1 and replica.stats.votes_sent == 1
    replica.on_message(0, proposals[1])
    assert replica.stats.equivocations_detected == 1
    assert len(replica.commit_timers) == 0
    assert [m.msg_type for m in flooded] == [MessageType.BLAME]
    before = (dataclasses.replace(replica.stats), replica.b_lock.block_hash, list(flooded))
    replica.on_message(0, proposals[2])
    assert (replica.stats, replica.b_lock.block_hash, flooded) == before
    assert len(replica.commit_timers) == 0


def test_stale_equivocation_proof_does_not_depose_a_later_leader():
    sim, scheme, _, replicas = build_cluster()
    from repro.core.blocks import make_block
    from repro.core.types import Command

    # A genuine view-1 equivocation by node 0 ...
    genesis = replicas[2].blocks.genesis
    proof = EquivocationProof(
        *(
            make_message(
                scheme,
                0,
                MessageType.PROPOSE,
                1,
                make_block(genesis, 0, 1, 3, [Command(name)]),
                round_number=3,
            )
            for name in ("a", "b")
        )
    )
    # ... replayed by Byzantine node 4 inside a blame for view 2 (honest
    # leader: node 1) accuses nobody.
    later = replicas[2]
    later.v_cur = 2
    later.on_message(4, make_message(scheme, 4, MessageType.BLAME, 2, proof))
    assert 2 not in later.quit_views
    assert not later.in_view_change
    assert later.stats.equivocations_detected == 0
    assert later.stats.blames_sent == 0
    assert 4 in later.blames[2]  # validly signed: it still counts toward f+1
    # The same proof inside a view-1 blame still quits view 1.
    current = replicas[3]
    current.on_message(4, make_message(scheme, 4, MessageType.BLAME, 1, proof))
    assert 1 in current.quit_views
    assert current.stats.equivocations_detected == 1


def blame(scheme, sender, view=1):
    return make_message(scheme, sender, MessageType.BLAME, view, None)


def blame_certificate(scheme, signers, view=1):
    """A BLAME_QC carrier, signed by the first signer, over the signers' blames."""
    qc = make_view_qc([blame(scheme, signer, view) for signer in signers])
    return make_message(scheme, signers[0], MessageType.BLAME_QC, view, qc)


@every_leader_class
def test_blame_quorum_requires_f_plus_one_distinct_signers(replica_class):
    sim, scheme, config, replicas = build_cluster(replica_class=replica_class)
    replica = replicas[3]
    replica.on_message(1, blame(scheme, 1))
    replica.on_message(1, blame(scheme, 1))  # the same signer twice is one blame
    assert 1 not in replica.quit_views
    replica.on_message(2, blame(scheme, 2))
    # f + 1 = 2 distinct blames -> the replica quits the view.
    assert 1 in replica.quit_views
    assert replica.in_view_change


@every_leader_class
def test_forged_blame_certificate_is_rejected(replica_class):
    sim, scheme, config, replicas = build_cluster(replica_class=replica_class)
    replica = replicas[3]
    # A "certificate" built from a single blame does not meet the quorum.
    replica.on_message(1, blame_certificate(scheme, [1]))
    assert 1 not in replica.quit_views
    replica.on_message(1, blame_certificate(scheme, [1, 2]))
    assert 1 in replica.quit_views


@every_leader_class
def test_past_view_blames_and_certificates_are_ignored(replica_class):
    sim, scheme, config, replicas = build_cluster(replica_class=replica_class)
    replica = replicas[3]
    replica.v_cur = 2
    for message in (blame(scheme, 1), blame(scheme, 2), blame_certificate(scheme, [1, 2])):
        replica.on_message(message.sender, message)
    assert replica.blames == {} and replica.quit_views == set()
    assert not replica.in_view_change


@every_leader_class
def test_future_view_blames_are_held_by_eesmr_only(replica_class):
    sim, scheme, config, replicas = build_cluster(replica_class=replica_class)
    replica = replicas[3]
    for message in (blame(scheme, 0, 2), blame_certificate(scheme, [0, 2], 2)):
        replica.on_message(message.sender, message)
    assert replica.blames == {} and replica.quit_views == set()
    replica.v_cur = 2
    if replica_class is EesmrReplica:
        replica._replay_buffered_future()
    # EESMR held both and the replayed certificate quits view 2; Sync HotStuff
    # and OptSync dropped them on arrival, so there is nothing to replay.
    assert (2 in replica.quit_views) == (replica_class is EesmrReplica)
    assert (0 in replica.blames.get(2, {})) == (replica_class is EesmrReplica)


@every_leader_class
def test_leave_view_runs_once_and_cancels_every_timer(replica_class):
    sim, scheme, config, replicas = build_cluster(replica_class=replica_class)
    replica = replicas[3]
    quits = []
    replica._quit_view = quits.append  # type: ignore[assignment]
    replica.blame_timer.start(4 * config.delta)
    for key in ("a", "b"):
        replica.commit_timers.start(key, 4 * config.delta, replica._commit_on_timer, None)
    replica._leave_view(2)  # not the current view: nothing happens
    assert len(replica.commit_timers) == 2 and quits == []
    replica._leave_view(1)
    replica._leave_view(1)
    assert quits == [1]
    assert len(replica.commit_timers) == 0 and not replica.blame_timer.running
    assert replica.in_view_change and replica.quit_views == {1}


@every_leader_class
def test_f_plus_one_blames_flood_one_certificate(replica_class):
    sim, scheme, config, replicas = build_cluster(replica_class=replica_class)
    replica = replicas[3]
    flooded = []
    replica.broadcast = flooded.append  # type: ignore[assignment]
    for sender in (0, 1, 2, 4):
        replica.on_message(sender, blame(scheme, sender))
    certificates = [m for m in flooded if m.msg_type == MessageType.BLAME_QC]
    assert len(certificates) == 1
    assert len(certificates[0].data.signatures) == config.quorum
    assert replica.stats.blames_sent == 0  # others' blames never make us sign one


@every_leader_class
def test_dispatch_resolves_every_handler_on_the_instance(replica_class):
    sim, scheme, config, replicas = build_cluster(replica_class=replica_class)
    replica = replicas[3]
    assert {MessageType.BLAME, MessageType.BLAME_QC} <= set(replica_class._HANDLERS)
    for name in replica_class._HANDLERS.values():
        assert callable(getattr(replica, name)), name
    # A type the protocol has no handler for, and a non-message, are dropped.
    replica.on_message(0, make_message(scheme, 0, MessageType.TB_ORDER, 1, None))
    replica.on_message(0, "not a protocol message")
    assert replica.blames == {} and replica.b_lock.is_genesis


def test_dispatch_honours_a_subclass_override_of_an_eesmr_handler():
    seen = []

    class Eavesdropper(EesmrReplica):
        def _on_propose(self, message):
            seen.append(message)

    sim, scheme, config, replicas = build_cluster(replica_class=Eavesdropper)
    proposal = make_message(scheme, 0, MessageType.PROPOSE, 1, None, round_number=3)
    replicas[2].on_message(0, proposal)
    assert seen == [proposal] and replicas[2].b_lock.is_genesis


def test_commit_update_votes_only_for_non_conflicting_blocks():
    sim, scheme, _, replicas = build_cluster()
    replica = replicas[2]
    from repro.core.blocks import make_block
    from repro.core.types import Command

    locked = make_block(replica.blocks.genesis, 0, 1, 3, [Command("x")])
    replica.on_message(0, make_message(scheme, 0, MessageType.PROPOSE, 1, locked, round_number=3))
    sent = []
    replica.send = lambda dst, msg: sent.append((dst, msg))  # type: ignore[assignment]
    # A commit update for a conflicting block gets no Certify vote.
    conflicting = make_block(replica.blocks.genesis, 4, 1, 3, [Command("y")])
    replica.store_block(conflicting)
    replica.on_message(4, make_message(scheme, 4, MessageType.COMMIT_UPDATE, 1, conflicting))
    assert sent == []
    # One for the genesis (an ancestor of the lock) is certified.
    replica.on_message(4, make_message(scheme, 4, MessageType.COMMIT_UPDATE, 1, replica.blocks.genesis))
    assert len(sent) == 1
    assert sent[0][0] == 4
    assert sent[0][1].msg_type == MessageType.CERTIFY


def test_describe_snapshot_fields():
    _, _, _, replicas = build_cluster()
    snapshot = replicas[0].describe()
    assert {"pid", "view", "round", "locked_height", "committed_height", "in_view_change"} <= set(snapshot)
