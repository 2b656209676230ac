"""The admission contract: one rule per message type, applied once before dispatch.

Each replica class maps every ``MessageType`` it handles to ``(handler
name, Admit rule)``, and ``BaseReplica.on_message`` applies the rule —
view, leader, payload, certificate type and guard, all free, then both
signatures, then a certificate payload's own — before the handler runs.
This file holds each protocol's whole table as a literal, and shows every
field of every row is load-bearing: a message that breaks only that field
is refused through ``on_message`` (at no verification cost when the check
is free), and the same message gets through a copy of the table with that
one field relaxed.
"""

import dataclasses

import pytest

from repro.core.baselines.optsync import OptSyncReplica
from repro.core.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.core.blocks import GENESIS, Block, make_block
from repro.core.eesmr.replica import EesmrReplica
from repro.core.messages import (
    CertifiedBlock,
    EquivocationProof,
    MessageType as T,
    NewViewProposal,
    QuorumCertificate,
    Round2Proposal,
    SyncRequest,
    SyncResponse,
    make_qc,
)
from repro.core.replica_base import Admit, InView
from repro.energy.meter import EnergyCategory
from repro.session import Session

from tests.conftest import honest_spec

CURRENT, LATER, ANY = InView.CURRENT, InView.BUFFER_LATER, InView.ANY

EESMR_TABLE = {
    T.SYNC_REQUEST: ("_on_sync_request", Admit(SyncRequest, view=ANY)),
    T.SYNC_RESPONSE: ("_on_sync_response", Admit(SyncResponse, view=ANY)),
    T.BLAME: ("_on_blame", Admit((type(None), EquivocationProof), view=LATER)),
    T.BLAME_QC: (
        "_on_blame_qc",
        Admit(QuorumCertificate, view=LATER, certificate=T.BLAME),
    ),
    T.PROPOSE: ("_on_propose", Admit((Block, Round2Proposal), view=LATER, from_leader=True)),
    T.COMMIT_UPDATE: ("_on_commit_update", Admit(Block)),
    T.CERTIFY: ("_on_certify", Admit(str)),
    # Deliberately any view: the certificate is flooded in the view a node
    # quits and sent to the next leader in the new one.
    T.COMMIT_QC: (
        "_on_commit_qc",
        Admit(QuorumCertificate, view=ANY, certificate=T.CERTIFY),
    ),
    T.NEW_VIEW_PROPOSAL: (
        "_on_new_view_proposal",
        Admit(NewViewProposal, view=LATER, from_leader=True, guard="_in_round_one"),
    ),
    T.VOTE: ("_on_vote", Admit(str, guard="_leads_view")),
}

SYNC_HOTSTUFF_TABLE = {
    T.SYNC_REQUEST: ("_on_sync_request", Admit(SyncRequest, view=ANY)),
    T.SYNC_RESPONSE: ("_on_sync_response", Admit(SyncResponse, view=ANY)),
    T.BLAME: ("_on_blame", Admit((type(None), EquivocationProof), view=LATER)),
    T.BLAME_QC: (
        "_on_blame_qc",
        Admit(QuorumCertificate, view=LATER, certificate=T.BLAME),
    ),
    T.SHS_PROPOSE: (
        "_on_propose",
        Admit(CertifiedBlock, from_leader=True, guard="_outside_view_change"),
    ),
    T.SHS_VOTE: ("_on_vote", Admit(str, guard="_vote_still_counted")),
    # Deliberately any view: a status is sent in the view being quit.
    T.SHS_STATUS: ("_on_status", Admit(CertifiedBlock, view=ANY)),
}

#: protocol -> (class, its table, the types it does not handle).
PROTOCOLS = {
    "eesmr": (
        EesmrReplica,
        EESMR_TABLE,
        {T.SHS_PROPOSE, T.SHS_VOTE, T.SHS_STATUS, T.TB_REQUEST, T.TB_ORDER},
    ),
    "sync-hotstuff": (
        SyncHotStuffReplica,
        SYNC_HOTSTUFF_TABLE,
        {
            T.PROPOSE, T.COMMIT_UPDATE, T.CERTIFY, T.COMMIT_QC, T.NEW_VIEW_PROPOSAL, T.VOTE,
            T.TB_REQUEST, T.TB_ORDER,
        },
    ),
    "optsync": (
        OptSyncReplica,
        SYNC_HOTSTUFF_TABLE,
        {
            T.PROPOSE, T.COMMIT_UPDATE, T.CERTIFY, T.COMMIT_QC, T.NEW_VIEW_PROPOSAL, T.VOTE,
            T.TB_REQUEST, T.TB_ORDER,
        },
    ),
}

#: The value of each field that checks nothing (``payload`` has none).
PERMISSIVE = {"view": ANY, "from_leader": False, "certificate": None, "guard": None}

#: Payloads of every shape a row might refuse.
BLOCK = make_block(GENESIS, proposer=0, view=1, round_number=3, commands=[])
WRONG_PAYLOADS = (None, "not-a-block", BLOCK, SyncRequest(0))


def rows():
    for protocol, (_, table, _) in PROTOCOLS.items():
        for msg_type in table:
            yield protocol, msg_type


def breaks():
    """Every (protocol, type, broken field) whose row checks that field."""
    for protocol, msg_type in rows():
        admit = PROTOCOLS[protocol][1][msg_type][1]
        for field in dataclasses.fields(Admit):
            value = getattr(admit, field.name)
            if field.name == "payload" or value != PERMISSIVE[field.name]:
                yield pytest.param(
                    protocol, msg_type, field.name, id=f"{protocol}-{msg_type.value}-{field.name}"
                )
            if field.name == "certificate" and value is not None:
                yield pytest.param(
                    protocol, msg_type, "signatures", id=f"{protocol}-{msg_type.value}-signatures"
                )


# ------------------------------------------------------------------ scenario
def sign(session, pid, msg_type, data, view=1, round_number=0):
    return session.replicas[pid].sign_message(msg_type, data, view=view, round_number=round_number)


def certificate(session, msg_type, signers):
    """A certificate of ``msg_type`` by ``signers``: view-signed for a blame, else over BLOCK."""
    if msg_type is T.BLAME:
        return make_qc([sign(session, pid, T.BLAME, None) for pid in signers])
    votes = [sign(session, pid, msg_type, BLOCK.block_hash) for pid in signers]
    return make_qc(votes, block=BLOCK)


def scenario(session, msg_type, broken=None):
    """(receiver, message) where the message passes its row, but for ``broken``.

    Node 3 receives in view 1 (led by node 0); everything is signed by node 1
    unless the row wants the leader.  ``broken`` names the one field the
    message (or the receiver's state) fails: an ``Admit`` field, or
    ``"signatures"`` for a certificate one signer short of its quorum.
    """
    quorum = session.config.quorum
    receiver, sender, view, round_number = 3, 1, 1, 0
    data = {
        T.SYNC_REQUEST: SyncRequest(0),
        T.SYNC_RESPONSE: SyncResponse((BLOCK,), None, 1),
        T.BLAME: None,
        T.BLAME_QC: certificate(session, T.BLAME, range(1, 1 + quorum)),
        T.PROPOSE: BLOCK,
        T.COMMIT_UPDATE: BLOCK,
        T.CERTIFY: BLOCK.block_hash,
        T.COMMIT_QC: certificate(session, T.CERTIFY, range(1, 1 + quorum)),
        T.NEW_VIEW_PROPOSAL: NewViewProposal(BLOCK),
        T.VOTE: "digest",
        T.SHS_PROPOSE: CertifiedBlock(BLOCK),
        T.SHS_VOTE: BLOCK.block_hash,
        T.SHS_STATUS: CertifiedBlock(BLOCK),
    }[msg_type]
    if msg_type in (T.PROPOSE, T.NEW_VIEW_PROPOSAL, T.SHS_PROPOSE):
        sender, round_number = 0, 3
    if msg_type is T.NEW_VIEW_PROPOSAL:
        session.replicas[receiver].r_cur = 1
    if msg_type is T.VOTE:
        receiver = 0  # round-1 votes go to the view's leader
    replica = session.replicas[receiver]

    if broken == "view":
        replica.v_cur = 2  # the message is now of an earlier view
    elif broken == "from_leader":
        sender = 2
    elif broken == "payload":
        accepted = type(replica)._HANDLERS[msg_type][1].payload
        data = next(wrong for wrong in WRONG_PAYLOADS if not isinstance(wrong, accepted))
    elif broken == "certificate":
        data = dataclasses.replace(data, cert_type=T.VOTE)
    elif broken == "signatures":
        data = certificate(session, data.cert_type, range(1, quorum))
    elif broken == "guard":
        if msg_type is T.NEW_VIEW_PROPOSAL:
            replica.r_cur = 2
        elif msg_type is T.VOTE:
            replica.v_cur = view = 2  # node 1 leads view 2
        elif msg_type is T.SHS_PROPOSE:
            replica.in_view_change = True
        elif msg_type is T.SHS_VOTE and isinstance(replica, OptSyncReplica):
            replica.responsive.add(data)  # the block's responsive count is reached
        elif msg_type is T.SHS_VOTE:
            replica.certs[data] = certificate(session, T.SHS_VOTE, range(replica.vote_quorum))
    return replica, sign(session, sender, msg_type, data, view, round_number)


def verifies(replica):
    """Verification operations charged to ``replica`` so far."""
    return sum(
        times for (category, _), times in replica.meter.counts.items()
        if category is EnergyCategory.VERIFY
    )


def deliver(replica, message, table=None):
    """Deliver ``message`` with every handler stubbed; what the handlers saw."""
    seen = []
    for name, _ in replica._HANDLERS.values():
        setattr(replica, name, seen.append)
    if table is not None:
        replica._HANDLERS = table
    replica.on_message(message.sender, message)
    return seen


def new_session(protocol):
    return Session.from_spec(honest_spec(protocol))


# --------------------------------------------------------------------- tests
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_table_is_the_literal(protocol):
    cls, table, _ = PROTOCOLS[protocol]
    assert cls._HANDLERS == table


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_message_type_is_a_row_or_named_unhandled(protocol):
    _, table, unhandled = PROTOCOLS[protocol]
    assert set(table).isdisjoint(unhandled)
    assert set(table) | unhandled == set(T)
    session = new_session(protocol)
    replica = session.replicas[3]
    for msg_type in unhandled:
        assert deliver(replica, sign(session, 1, msg_type, None)) == []
    assert verifies(replica) == 0


def test_each_field_takes_two_values_across_the_rows():
    admits = [admit for _, table, _ in PROTOCOLS.values() for _, admit in table.values()]
    for field in dataclasses.fields(Admit):
        assert len({getattr(admit, field.name) for admit in admits}) >= 2, field.name


@pytest.mark.parametrize("protocol, msg_type", list(rows()))
def test_a_message_that_passes_its_row_reaches_its_handler_verified(protocol, msg_type):
    replica, message = scenario(new_session(protocol), msg_type)
    assert deliver(replica, message) == [message]
    assert verifies(replica) >= 2


@pytest.mark.parametrize("protocol, msg_type", list(rows()))
def test_every_row_refuses_a_forged_signature(protocol, msg_type):
    session = new_session(protocol)
    replica, message = scenario(session, msg_type)
    other = sign(session, message.sender, T.BLAME, "other data")
    forged = dataclasses.replace(message, data_sig=other.data_sig)
    assert deliver(replica, forged) == []
    assert verifies(replica) == 2


@pytest.mark.parametrize("protocol, msg_type, field", list(breaks()))
def test_each_field_is_load_bearing(protocol, msg_type, field):
    replica, message = scenario(new_session(protocol), msg_type, broken=field)
    assert deliver(replica, message) == []
    if field == "signatures":
        assert verifies(replica) > 2  # both message signatures, then the certificate's
    else:
        assert verifies(replica) == 0, "a free check refused after a verification"

    # The same message through the table with that one field relaxed.
    handler, admit = replica._HANDLERS[msg_type]
    if field == "payload":
        # A certificate rule reads a certificate: it goes with the payload.
        relaxed = dataclasses.replace(
            admit, payload=(admit.payload, type(message.data)), certificate=None
        )
    elif field == "signatures":
        relaxed = dataclasses.replace(admit, certificate=None)
    else:
        relaxed = dataclasses.replace(admit, **{field: PERMISSIVE[field]})
    table = {**replica._HANDLERS, msg_type: (handler, relaxed)}
    assert deliver(replica, message, table) == [message]


@pytest.mark.parametrize(
    "protocol, msg_type",
    [
        (protocol, msg_type)
        for protocol, msg_type in rows()
        if PROTOCOLS[protocol][1][msg_type][1].view is not ANY
    ],
)
def test_a_later_view_is_buffered_only_where_the_row_says_so(protocol, msg_type):
    session = new_session(protocol)
    replica, message = scenario(session, msg_type)
    replica.v_cur = 0  # the message is now of a later view
    buffered = []
    replica._buffer_future = buffered.append
    assert deliver(replica, message) == []
    assert verifies(replica) == 0
    handler, admit = replica._HANDLERS[msg_type]
    assert buffered == ([message] if admit.view is LATER else [])
    if admit.view is LATER:
        relaxed = dataclasses.replace(admit, view=CURRENT)
        buffered.clear()
        assert deliver(replica, message, {**replica._HANDLERS, msg_type: (handler, relaxed)}) == []
        assert buffered == []
