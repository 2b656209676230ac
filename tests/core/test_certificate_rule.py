"""One certificate rule: the type decides what is signed, the holder decides the quorum.

A replica adopts a certificate through ``verify_quorum_certificate(qc,
cert_type)``, naming the type it adopts: a certificate of another type
vouches for nothing and is refused before any signature is checked, so it
costs no verification energy.  How many signers a type needs is the
holder's ``certificate_quorum(cert_type)``: f + 1, except a Sync HotStuff /
OptSync vote certificate, which needs ``vote_quorum`` (⌊n/2⌋ + 1).  OptSync's
⌊3n/4⌋ + 1 is not a certificate's size: it is the vote count that arms the
responsive commit.
"""

import pytest

from repro.core.blocks import GENESIS, make_block
from repro.core.messages import MessageType as T, SyncResponse, make_qc, verify_qc
from repro.energy.meter import EnergyCategory
from repro.session import Session

from tests.conftest import honest_spec

#: protocol -> each certificate type its replicas adopt -> the signers it
#: needs at n = 7, f = 2: f + 1 = 3 and ⌊n/2⌋ + 1 = 4.
ADOPTED = {
    "eesmr": {T.BLAME: 3, T.CERTIFY: 3, T.VOTE: 3},
    "sync-hotstuff": {T.BLAME: 3, T.SHS_VOTE: 4},
    "optsync": {T.BLAME: 3, T.SHS_VOTE: 4},
}

#: OptSync's responsive count at n = 7: ⌊3n/4⌋ + 1 = 6 votes arm its 2δ commit.
OPTSYNC_RESPONSIVE_QUORUM = 6

#: Every type some protocol certifies.
CERTIFIED = (T.BLAME, T.CERTIFY, T.VOTE, T.SHS_VOTE)

BLOCK = make_block(GENESIS, proposer=1, view=1, round_number=1, commands=[])


def new_session(protocol):
    return Session.from_spec(honest_spec(protocol, n=7, f=2, k=3))


def certificate(session, msg_type, signers):
    """``signers``' messages of ``msg_type`` as a certificate: a blame's carries
    no block, every other one is over ``BLOCK`` and carries it."""
    if msg_type is T.BLAME:
        return make_qc([session.replicas[pid].sign_message(T.BLAME, None) for pid in signers])
    votes = [session.replicas[pid].sign_message(msg_type, BLOCK.block_hash) for pid in signers]
    return make_qc(votes, block=BLOCK)


def verifies(replica):
    """Verification operations charged to ``replica`` so far."""
    return sum(
        times for (category, _), times in replica.meter.counts.items()
        if category is EnergyCategory.VERIFY
    )


def adoptions():
    for protocol, adopted in ADOPTED.items():
        for cert_type in adopted:
            for other in CERTIFIED:
                if other is not cert_type:
                    yield pytest.param(
                        protocol, cert_type, other,
                        id=f"{protocol}-{cert_type.value}-given-{other.value}",
                    )


@pytest.mark.parametrize("protocol, cert_type, other", list(adoptions()))
def test_a_valid_certificate_of_another_type_is_refused_for_free(protocol, cert_type, other):
    session = new_session(protocol)
    replica = session.replicas[3]
    cert = certificate(session, other, range(session.config.n))
    before = verifies(replica)
    assert not replica.verify_quorum_certificate(cert, cert_type)
    assert verifies(replica) == before
    # The same certificate is valid as what it is.
    assert replica.verify_quorum_certificate(cert, other)
    assert verifies(replica) == before + session.config.n


@pytest.mark.parametrize("protocol", ADOPTED)
def test_each_adopted_type_verifies_at_its_holders_quorum(protocol):
    session = new_session(protocol)
    replica = session.replicas[3]
    for cert_type, quorum in ADOPTED[protocol].items():
        assert replica.certificate_quorum(cert_type) == quorum
        assert replica.verify_quorum_certificate(
            certificate(session, cert_type, range(quorum)), cert_type
        )
        assert not replica.verify_quorum_certificate(
            certificate(session, cert_type, range(quorum - 1)), cert_type
        )
    if protocol == "optsync":
        assert replica.responsive_quorum == OPTSYNC_RESPONSIVE_QUORUM


def test_eesmr_adopts_a_synced_suffix_on_vouchers_not_on_a_certificate():
    """EESMR has no tip certificate: one response carrying a valid one is one
    voucher, and the suffix commits on the f + 1-th."""
    session = new_session("eesmr")
    receiver = session.replicas[3]
    cert = certificate(session, T.CERTIFY, range(session.config.n))
    assert verify_qc(session.scheme, 3, cert, session.config.n)
    for pid in range(session.config.f):
        response = session.replicas[pid].sign_message(
            T.SYNC_RESPONSE, SyncResponse((BLOCK,), cert, 1)
        )
        receiver.on_message(pid, response)
        assert receiver.committed_height == 0
    last = session.replicas[session.config.f].sign_message(
        T.SYNC_RESPONSE, SyncResponse((BLOCK,), None, 1)
    )
    receiver.on_message(last.sender, last)
    assert receiver.committed_height == 1
