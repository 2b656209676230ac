"""A quorum certificate vouches for the block its signers voted for, only.

A certificate's signatures cover ``digest``; the attached ``block`` is
what a receiver acts on.  A Byzantine leader's ``CertifiedBlock`` or a
Byzantine catch-up responder's ``SyncResponse`` could otherwise re-attach
an honest certificate to a block of its own making.  Likewise an EESMR
round-2 proposal must carry its own view's round-1 certificate, over the
proposal the receiver voted for, not a genuine certificate from elsewhere.
"""

from dataclasses import replace

import pytest

from repro.core.blocks import make_block
from repro.core.messages import (
    MessageType,
    NewViewProposal,
    Round2Proposal,
    SyncResponse,
    make_qc,
    message_data_digest,
)
from repro.session import Session

from tests.conftest import faulty_spec, honest_spec


@pytest.fixture
def session():
    return Session.from_spec(honest_spec("sync-hotstuff", seed=7)).run()


def test_every_honest_certificate_binds_its_block(session):
    certs = [cert for r in session.replicas.values() for cert in r.certs.values()]
    assert certs
    for cert in certs:
        assert cert.digest == message_data_digest(cert.block.block_hash)


def test_a_certificate_reattached_to_another_block_is_refused(session):
    replica = session.replicas[1]
    first, second = sorted(replica.certs.values(), key=lambda cert: cert.block.height)[:2]
    assert replica.verify_quorum_certificate(first, MessageType.SHS_VOTE)
    assert not replica.verify_quorum_certificate(
        replace(first, block=second.block), MessageType.SHS_VOTE
    )


def test_a_sync_response_with_a_forged_tip_certificate_is_not_adopted(session):
    replica = session.replicas[1]
    height = replica.committed_height
    tip_cert = replica.certs[replica.b_com.block_hash]
    fabricated = make_block(
        replica.b_com, proposer=2, view=replica.v_cur, round_number=0, commands=[]
    )
    forged = replace(tip_cert, block=fabricated)
    response = session.replicas[2].sign_message(
        MessageType.SYNC_RESPONSE, SyncResponse((fabricated,), forged, height + 1)
    )
    replica.on_message(2, response)
    assert replica.committed_height == height
    assert replica.b_com.block_hash != fabricated.block_hash


# ------------------------------------------------- EESMR round-2 certificates
@pytest.fixture
def view_change():
    """A finished EESMR run whose view 2 formed a round-1 vote certificate.

    Node 1 led view 2; node 2 leads view 3 and plays a Byzantine leader
    below; node 3 is the correct receiver, moved to view 3, round 1.
    """
    session = Session.from_spec(faulty_spec("silent_leader", seed=5)).run()
    receiver = session.replicas[3]
    receiver.v_cur, receiver.r_cur, receiver.in_view_change = 3, 1, True
    return session


def vote_certificate(session, view, digest):
    """f + 1 round-1 votes of ``view`` over ``digest``, as a certificate."""
    quorum = session.config.quorum
    votes = [
        session.replicas[pid].sign_message(MessageType.VOTE, digest, view=view, round_number=1)
        for pid in range(1, 1 + quorum)
    ]
    return make_qc(votes)


def round2(session, qc, block_hash):
    """Node 2's (view 3's leader's) signed round-2 proposal carrying ``qc``."""
    return session.replicas[2].sign_message(
        MessageType.PROPOSE, Round2Proposal(qc, block_hash), view=3, round_number=2
    )


def test_a_round2_proposal_replaying_an_earlier_views_certificate_is_refused(view_change):
    view2_leader = view_change.replicas[1]
    quorum = view_change.config.quorum
    view2_qc = make_qc(list(view2_leader.nv_votes[2].values())[:quorum])
    receiver = view_change.replicas[3]
    assert receiver.verify_quorum_certificate(view2_qc, MessageType.VOTE)
    receiver.on_message(2, round2(view_change, view2_qc, view2_leader.leader_chain_tip.block_hash))
    assert receiver.r_cur == 1 and receiver.in_view_change


def test_a_round2_certificate_must_be_over_what_the_receiver_voted_for(view_change):
    receiver = view_change.replicas[3]
    leader = view_change.replicas[2]
    block = make_block(receiver.b_com, proposer=2, view=3, round_number=1, commands=[])
    proposal = leader.sign_message(
        MessageType.NEW_VIEW_PROPOSAL, NewViewProposal(block), view=3, round_number=1
    )
    receiver.on_message(2, proposal)
    assert receiver.r_cur == 2
    # A genuine view-3 certificate, but over a proposal this node never saw.
    other = make_block(block, proposer=2, view=3, round_number=1, commands=[])
    elsewhere = vote_certificate(view_change, 3, NewViewProposal(other).digest)
    assert receiver.verify_quorum_certificate(elsewhere, MessageType.VOTE)
    receiver.on_message(2, round2(view_change, elsewhere, other.block_hash))
    assert receiver.r_cur == 2
    # The certificate over the proposal it voted for returns it to the steady state.
    voted = vote_certificate(view_change, 3, proposal.data_digest)
    receiver.on_message(2, round2(view_change, voted, block.block_hash))
    assert receiver.r_cur == 3 and not receiver.in_view_change
