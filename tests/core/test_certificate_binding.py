"""A quorum certificate vouches for the block its signers voted for, only.

A certificate's signatures cover ``digest``; the attached ``block`` is
what a receiver acts on.  A Byzantine leader's ``CertifiedBlock`` or a
Byzantine catch-up responder's ``SyncResponse`` could otherwise re-attach
an honest certificate to a block of its own making.
"""

from dataclasses import replace

import pytest

from repro.core.blocks import make_block
from repro.core.messages import MessageType, SyncResponse, message_data_digest
from repro.session import Session

from tests.conftest import honest_spec


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
    assert replica.verify_quorum_certificate(first)
    assert not replica.verify_quorum_certificate(replace(first, block=second.block))


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
