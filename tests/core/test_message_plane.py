"""The digest-once message plane: typed payload records and structural digests.

What is signed is a property a message is constructed with.  These tests
pin the four things that makes safe: a record's digest binds every field
(and its type), its wire size is byte-for-byte the dict or tuple payload's
it replaced, a message cannot be constructed around anything outside the
closed set ``PAYLOAD_TYPES``, and no protocol run ever falls back to the
JSON/``repr`` serialization — once per message, never once per receiver.
"""

from collections import Counter
from dataclasses import dataclass, replace

import pytest

from repro.core.blocks import GENESIS, make_block
from repro.core.baselines import TrustedControlNode
from repro.core.messages import (
    PAYLOAD_TYPES,
    CertifiedBlock,
    ClientRequest,
    EquivocationProof,
    MessageType,
    NewViewProposal,
    PayloadRecord,
    ProtocolMessage,
    QuorumCertificate,
    Round2Proposal,
    SyncRequest,
    SyncResponse,
    make_message,
    make_qc,
    payload_wire_size,
    verify_message,
)
from repro.core.types import Command
from repro.eval.runner import PROTOCOLS, run_protocol
from repro.sim.process import Process
from repro.testkit import faults
from tests.conftest import faulty_spec, honest_spec

BLOCK = make_block(GENESIS, 0, 1, 3, [Command("c0"), Command("c1")])
CHILD = make_block(BLOCK, 0, 1, 4, [Command("c2")])
OTHER = make_block(GENESIS, 1, 1, 3, [])
COMMANDS = tuple(Command(f"c{i}", payload_size_bytes=16 + i) for i in range(8))


def proposals(scheme, view=1):
    """Two conflicting signed proposals by node 0 (plus a third, for swapping)."""
    return [
        make_message(scheme, 0, MessageType.PROPOSE, view, block, round_number=3)
        for block in (BLOCK, OTHER, CHILD)
    ]


def certificate(scheme, block=BLOCK, view=1, signers=(0, 1, 2), msg_type=MessageType.CERTIFY):
    votes = [make_message(scheme, s, msg_type, view, block.block_hash) for s in signers]
    return make_qc(votes, block=block)


def with_forged_tag(cert: QuorumCertificate) -> QuorumCertificate:
    forged = replace(cert.signatures[0], tag="0" * len(cert.signatures[0].tag))
    return replace(cert, signatures=(forged, *cert.signatures[1:]))


# ------------------------------------------------------------ digest binding
def test_certificate_content_digest_binds_every_field(scheme):
    cert = certificate(scheme)
    other = certificate(scheme, signers=(0, 1, 3))
    variants = {
        "cert type": replace(cert, cert_type=MessageType.VOTE),
        "view": replace(cert, view=2),
        "signed digest": replace(cert, digest=OTHER.block_hash),
        "one signer": replace(cert, signers=(0, 1, 3)),
        "one signature": replace(cert, signatures=other.signatures),
        "one signature tag": with_forged_tag(cert),
        "attached block": replace(cert, block=OTHER),
        "no attached block": replace(cert, block=None),
    }
    digests = {name: variant.content_digest for name, variant in variants.items()}
    assert cert.content_digest not in digests.values(), digests
    assert len(set(digests.values())) == len(digests)
    # Equal content, equal digest: it is a function of the fields alone.
    assert certificate(scheme).content_digest == cert.content_digest


def record_variants(scheme):
    cert = certificate(scheme)
    other_cert = certificate(scheme, block=OTHER)
    first, second, third = proposals(scheme)
    return [
        (
            CertifiedBlock(BLOCK, cert),
            [
                CertifiedBlock(OTHER, cert),
                CertifiedBlock(BLOCK, None),
                CertifiedBlock(BLOCK, other_cert),
                CertifiedBlock(BLOCK, with_forged_tag(cert)),
                CertifiedBlock(BLOCK, replace(cert, view=2)),
            ],
        ),
        (
            NewViewProposal(BLOCK, (cert, other_cert)),
            [
                NewViewProposal(OTHER, (cert, other_cert)),
                NewViewProposal(BLOCK, (other_cert, cert)),
                NewViewProposal(BLOCK, (cert,)),
                NewViewProposal(BLOCK, ()),
                NewViewProposal(BLOCK, (cert, with_forged_tag(other_cert))),
            ],
        ),
        (
            Round2Proposal(cert, BLOCK.block_hash),
            [
                Round2Proposal(other_cert, BLOCK.block_hash),
                Round2Proposal(with_forged_tag(cert), BLOCK.block_hash),
                Round2Proposal(cert, OTHER.block_hash),
            ],
        ),
        (SyncRequest(3), [SyncRequest(4), SyncRequest(0)]),
        (
            SyncResponse((BLOCK, CHILD), cert, 5),
            [
                SyncResponse((BLOCK,), cert, 5),
                SyncResponse((BLOCK, OTHER), cert, 5),
                SyncResponse((BLOCK, CHILD), None, 5),
                SyncResponse((BLOCK, CHILD), with_forged_tag(cert), 5),
                SyncResponse((BLOCK, CHILD), cert, 6),
            ],
        ),
        (
            ClientRequest(COMMANDS[:2]),
            [
                ClientRequest((COMMANDS[0], COMMANDS[2])),
                ClientRequest((COMMANDS[1], COMMANDS[0])),
                ClientRequest(COMMANDS[:1]),
                ClientRequest(()),
                ClientRequest((COMMANDS[0], replace(COMMANDS[1], payload_digest="ff"))),
            ],
        ),
        (
            EquivocationProof(first, second),
            [
                EquivocationProof(first, third),
                EquivocationProof(third, second),
                EquivocationProof(second, first),
                EquivocationProof(first, replace(second, sender=1)),
                EquivocationProof(*proposals(scheme, view=2)[:2]),
            ],
        ),
    ]


def test_every_record_digest_changes_with_any_single_field(scheme):
    for base, variants in record_variants(scheme):
        digests = [variant.digest for variant in variants]
        assert base.digest not in digests, base
        assert len(set(digests)) == len(digests), base
        assert len(base.digest) == 64  # a vote on it is sized like any hash vote


def test_record_type_is_a_domain_tag(scheme):
    @dataclass(frozen=True)
    class Twin(PayloadRecord):
        block: object
        cert: object = None

    @dataclass(frozen=True)
    class RequestTwin(PayloadRecord):
        commands: tuple

    cert = certificate(scheme)
    assert Twin(BLOCK, cert).digest != CertifiedBlock(BLOCK, cert).digest
    assert Twin(BLOCK).wire_size_bytes == CertifiedBlock(BLOCK).wire_size_bytes
    assert RequestTwin(COMMANDS).digest != ClientRequest(COMMANDS).digest


def test_command_digest_ignores_arrival_time_like_equality_does():
    command = COMMANDS[0]
    assert replace(command, arrival_time=3.5).digest == command.digest
    for changed in (
        replace(command, command_id="other"),
        replace(command, client_id=1),
        replace(command, payload_size_bytes=17),
        replace(command, payload_digest="ff"),
    ):
        assert changed.digest != command.digest


def test_forged_certificate_tag_does_not_verify_against_the_genuine_signature(scheme):
    cert = certificate(scheme)
    genuine = make_message(scheme, 0, MessageType.SHS_PROPOSE, 1, CertifiedBlock(CHILD, cert))
    assert verify_message(scheme, 1, genuine)
    forged = ProtocolMessage(
        msg_type=genuine.msg_type,
        view=genuine.view,
        round=genuine.round,
        sender=genuine.sender,
        data=CertifiedBlock(CHILD, with_forged_tag(cert)),
        view_sig=genuine.view_sig,
        data_sig=genuine.data_sig,
    )
    assert forged.data_digest != genuine.data_digest
    assert not verify_message(scheme, 1, forged)
    assert not verify_message(scheme, 2, forged)  # nor from the verdict memo


def test_records_reject_fields_of_the_wrong_type(scheme):
    cert = certificate(scheme)
    for build in (
        lambda: CertifiedBlock("not a block"),
        lambda: CertifiedBlock(BLOCK, {"cert": cert}),
        lambda: NewViewProposal(BLOCK, [cert]),
        lambda: NewViewProposal(BLOCK, (cert, None)),
        lambda: Round2Proposal(cert, None),
        lambda: SyncRequest(True),
        lambda: SyncRequest("3"),
        lambda: SyncResponse([BLOCK], None, 1),
        lambda: SyncResponse((BLOCK,), None, 1.5),
        lambda: ClientRequest([COMMANDS[0]]),
        lambda: ClientRequest((COMMANDS[0], "x")),
        lambda: EquivocationProof(proposals(scheme)[0], None),
    ):
        with pytest.raises(TypeError):
            build()


# ------------------------------------------------------------------ wire size
@pytest.mark.parametrize("with_cert", (False, True), ids=("cert=None", "cert"))
def test_wire_size_equals_the_dict_payload_it_replaced(scheme, with_cert):
    cert = certificate(scheme) if with_cert else None
    assert CertifiedBlock(CHILD, cert).wire_size_bytes == payload_wire_size(
        {"block": CHILD, "cert": cert}
    )
    assert SyncResponse((BLOCK, CHILD), cert, 7).wire_size_bytes == payload_wire_size(
        {"blocks": (BLOCK, CHILD), "cert": cert, "height": 7}
    )


@pytest.mark.parametrize("certs", (0, 1, 3), ids=lambda c: f"status={c}")
def test_new_view_wire_sizes_equal_the_dict_payloads(scheme, certs):
    status = [certificate(scheme, signers=(0, 1, 2 + i)) for i in range(certs)]
    assert NewViewProposal(BLOCK, tuple(status)).wire_size_bytes == payload_wire_size(
        {"block": BLOCK, "status": status}
    )
    qc = certificate(scheme, msg_type=MessageType.VOTE)
    assert Round2Proposal(qc, BLOCK.block_hash).wire_size_bytes == payload_wire_size(
        {"qc": qc, "block_hash": BLOCK.block_hash}
    )
    assert SyncRequest(4).wire_size_bytes == payload_wire_size({"height": 4})


@pytest.mark.parametrize("count", (0, 1, 8))
def test_client_request_wire_size_equals_the_tuple_it_replaced(count):
    assert ClientRequest(COMMANDS[:count]).wire_size_bytes == payload_wire_size(COMMANDS[:count])


def test_equivocation_proof_wire_size_equals_the_pair_it_replaced(scheme):
    first, second, _ = proposals(scheme)
    assert EquivocationProof(first, second).wire_size_bytes == payload_wire_size((first, second))


# ------------------------------------------------------------- the closed set
@pytest.mark.parametrize(
    "payload",
    ({"balance": 100}, [BLOCK], (BLOCK, OTHER), 1.5, b"raw", object()),
    ids=lambda payload: type(payload).__name__,
)
def test_a_message_cannot_carry_a_payload_outside_the_closed_set(scheme, payload):
    with pytest.raises(TypeError):
        ProtocolMessage(MessageType.PROPOSE, 1, 3, 0, payload)
    with pytest.raises(TypeError):
        make_message(scheme, 0, MessageType.PROPOSE, 1, payload)


def test_control_node_ignores_a_request_that_is_not_a_client_request(sim, scheme, small_config):
    control = TrustedControlNode(sim, 9, small_config, scheme, network=None, round_interval=1.0)
    for payload in (COMMANDS[0].command_id, BLOCK, SyncRequest(1), None):
        control.on_message(1, make_message(scheme, 1, MessageType.TB_REQUEST, 1, payload))
    assert control.pending == []
    request = ClientRequest(COMMANDS[:2])
    control.on_message(1, make_message(scheme, 1, MessageType.TB_REQUEST, 1, request))
    assert control.pending == list(COMMANDS[:2])


# ------------------------------------------------------- once, not per receiver
def run_counting(spec):
    """Run ``spec``; count the delivered protocol messages by payload type."""
    delivered = Counter()
    real = Process.deliver

    def deliver(self, sender, message):
        if isinstance(message, ProtocolMessage):
            delivered[type(message.data)] += 1
        real(self, sender, message)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "deliver", deliver)
        result = run_protocol(spec)
    assert result.safety.consistent
    return delivered


@pytest.mark.parametrize("fault", (None, "crash", "equivocate", "partition-heal"))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_no_protocol_payload_takes_the_json_repr_path(protocol, fault):
    if fault is None:
        spec = honest_spec(protocol, n=7, f=2)
    elif fault == "partition-heal":
        # Drives the catch-up path: SYNC_REQUEST / SYNC_RESPONSE.
        spec = honest_spec(
            protocol,
            n=7,
            f=2,
            block_interval=2.0,
            fault_schedule=faults.partition(6, start=1.0, heal=7.0),
        )
    else:
        spec = faulty_spec(fault, protocol, n=7, f=2)
    delivered = run_counting(spec)
    # Only a str or None payload is serialized at all, and a message cannot
    # be constructed around anything outside the closed set.
    assert delivered and all(issubclass(kind, PAYLOAD_TYPES) for kind in delivered), delivered
    if protocol == "trusted-baseline":
        assert delivered[ClientRequest] > 0
    if (protocol, fault) == ("eesmr", "equivocate"):
        assert delivered[EquivocationProof] > 0


def test_serializations_per_run_do_not_grow_with_the_number_of_receivers(monkeypatch):
    import json

    def serializations(n):
        calls = []
        real = json.dumps
        with monkeypatch.context() as patch:
            patch.setattr(json, "dumps", lambda *a, **kw: calls.append(1) or real(*a, **kw))
            run_counting(honest_spec("sync-hotstuff", n=n, f=(n - 1) // 2, blocks=6))
        return len(calls)

    # One JSON encode per block, per proposal record and per carried
    # certificate — per message, whatever the number of receivers.
    assert 0 < serializations(7) == serializations(13)
