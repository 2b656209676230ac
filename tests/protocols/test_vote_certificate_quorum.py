"""A Sync HotStuff / OptSync certificate is a vote certificate of the protocol's quorum.

Both protocols form a certificate from ``vote_quorum`` ``SHS_VOTE``
signatures: ⌊n/2⌋ + 1 in Sync HotStuff, ⌊3n/4⌋ + 1 in OptSync.  At n = 7,
f = 2 the f + 1 = 3 signatures of the blame quorum are below either, so
three Byzantine-sized signers must not be able to certify a block of their
own making, and a certificate of another message type certifies nothing,
whatever its size.  The three places a certificate is adopted (a proposal,
a view-change status and a catch-up response) share the one check.
"""

import pytest

from repro.core.blocks import GENESIS, make_block
from repro.core.messages import (
    CertifiedBlock,
    MessageType,
    SyncResponse,
    make_qc,
)
from repro.session import Session

from tests.conftest import honest_spec

every_protocol = pytest.mark.parametrize("session", ["sync-hotstuff", "optsync"], indirect=True)
every_weak_kind = pytest.mark.parametrize("kind", ["f+1 votes", "certify type"])


@pytest.fixture
def session(request):
    return Session.from_spec(honest_spec(request.param, n=7, f=2, k=3))


def certificate(session, block, signers, msg_type=MessageType.SHS_VOTE):
    """``signers``' signatures of ``msg_type`` over ``block``, as a certificate."""
    votes = [
        session.replicas[pid].sign_message(msg_type, block.block_hash, view=1, round_number=1)
        for pid in signers
    ]
    return make_qc(votes, block=block)


def made_up_block():
    return make_block(GENESIS, proposer=1, view=1, round_number=1, commands=[])


def weak_certificates(session, block):
    """f + 1 vote signatures, and a full-size certificate of the wrong type."""
    quorum = session.replicas[3].vote_quorum
    assert session.config.quorum == 3 < quorum
    return {
        "f+1 votes": certificate(session, block, (0, 1, 2)),
        "certify type": certificate(session, block, range(quorum), MessageType.CERTIFY),
    }


@every_weak_kind
@every_protocol
def test_a_weak_certificate_does_not_verify(session, kind):
    block = made_up_block()
    receiver = session.replicas[3]
    weak = weak_certificates(session, block)[kind]
    assert not receiver.verify_quorum_certificate(weak, MessageType.SHS_VOTE)
    assert receiver.verify_quorum_certificate(
        certificate(session, block, range(receiver.vote_quorum)), MessageType.SHS_VOTE
    )


@every_weak_kind
@every_protocol
def test_a_sync_response_with_a_weak_tip_certificate_is_not_committed(session, kind):
    block = made_up_block()
    cert = weak_certificates(session, block)[kind]
    response = session.replicas[1].sign_message(
        MessageType.SYNC_RESPONSE, SyncResponse((block,), cert, 1)
    )
    receiver = session.replicas[3]
    receiver.on_message(1, response)
    assert receiver.committed_height == 0


@every_weak_kind
@every_protocol
def test_a_proposal_with_a_weak_parent_certificate_adopts_nothing(session, kind):
    parent = made_up_block()
    child = make_block(parent, proposer=0, view=1, round_number=2, commands=[])
    payload = CertifiedBlock(child, weak_certificates(session, parent)[kind])
    proposal = session.replicas[0].sign_message(
        MessageType.SHS_PROPOSE, payload, view=1, round_number=2
    )
    receiver = session.replicas[3]
    receiver.on_message(0, proposal)
    assert parent.block_hash not in receiver.certs
    assert receiver.b_lock.is_genesis and receiver.stats.votes_sent == 0


@every_weak_kind
@every_protocol
def test_a_status_with_a_weak_certificate_adopts_nothing(session, kind):
    block = made_up_block()
    status = session.replicas[1].sign_message(
        MessageType.SHS_STATUS, CertifiedBlock(block, weak_certificates(session, block)[kind])
    )
    receiver = session.replicas[3]
    receiver.on_message(1, status)
    assert block.block_hash not in receiver.certs


@every_protocol
def test_a_full_vote_certificate_is_still_adopted(session):
    block = made_up_block()
    receiver = session.replicas[3]
    cert = certificate(session, block, range(receiver.vote_quorum))
    response = session.replicas[1].sign_message(
        MessageType.SYNC_RESPONSE, SyncResponse((block,), cert, 1)
    )
    receiver.on_message(1, response)
    assert receiver.committed_height == 1
