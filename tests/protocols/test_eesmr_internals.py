"""White-box tests for EESMR replica internals (buffering, locks, certificates)."""

from repro.core.client import AckRouter, Client
from repro.core.config import ProtocolConfig
from repro.core.eesmr.replica import EesmrReplica
from repro.core.messages import EquivocationProof, MessageType, make_message
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import make_scheme
from repro.energy.ledger import ClusterEnergyLedger
from repro.net.network import SimulatedNetwork
from repro.net.topology import ring_kcast_topology
from repro.sim.rng import SeededRNG
from repro.sim.scheduler import Simulator


def build_cluster(n=5, f=1, k=2, target=3, delta=8.0, seed=9):
    """A hand-wired EESMR cluster (no runner) for white-box manipulation."""
    sim = Simulator()
    topology = ring_kcast_topology(n, k)
    ledger = ClusterEnergyLedger(topology.nodes)
    network = SimulatedNetwork(sim, topology, ledger, rng=SeededRNG(seed), hop_delay=1.0)
    keystore = KeyStore(seed=seed)
    keystore.generate(topology.nodes)
    scheme = make_scheme("rsa-1024", keystore=keystore)
    config = ProtocolConfig(n=n, f=f, delta=delta, target_height=target)
    client = Client(client_id=0, f=f)
    router = AckRouter([client])
    replicas = {}
    for pid in range(n):
        replica = EesmrReplica(sim, pid, config, scheme, network, ledger.meter(pid), router)
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


def test_blame_quorum_requires_f_plus_one_distinct_signers():
    sim, scheme, config, replicas = build_cluster()
    replica = replicas[3]
    blame_1 = make_message(scheme, 1, MessageType.BLAME, 1, None)
    replica.on_message(1, blame_1)
    assert 1 not in replica.quit_views
    blame_2 = make_message(scheme, 2, MessageType.BLAME, 1, None)
    replica.on_message(2, blame_2)
    # f + 1 = 2 distinct blames -> the replica quits the view.
    assert 1 in replica.quit_views
    assert replica.in_view_change


def test_forged_blame_certificate_is_rejected():
    sim, scheme, config, replicas = build_cluster()
    replica = replicas[3]
    # A "certificate" built from a single blame does not meet the quorum.
    lone_blame = make_message(scheme, 1, MessageType.BLAME, 1, None)
    from repro.core.messages import make_view_qc

    weak_qc = make_view_qc([lone_blame])
    carrier = make_message(scheme, 1, MessageType.BLAME_QC, 1, weak_qc)
    replica.on_message(1, carrier)
    assert 1 not in replica.quit_views


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
