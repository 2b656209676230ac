"""Unit tests for protocol messages and quorum certificates."""

import pytest

from repro.core.blocks import GENESIS, make_block
from repro.core.messages import (
    MessageType,
    make_message,
    make_qc,
    make_view_qc,
    message_data_digest,
    verify_message,
    verify_qc,
    verify_view_qc,
)


def signed(scheme, sender, data="payload", msg_type=MessageType.CERTIFY, view=1):
    return make_message(scheme, sender, msg_type, view, data)


def test_make_message_signs_view_and_data(scheme):
    message = signed(scheme, 0)
    assert message.view_sig is not None and message.data_sig is not None
    assert verify_message(scheme, 1, message)


def test_verify_rejects_tampered_data(scheme):
    message = signed(scheme, 0, data="payload")
    tampered = type(message)(
        msg_type=message.msg_type,
        view=message.view,
        round=message.round,
        sender=message.sender,
        data="other",
        view_sig=message.view_sig,
        data_sig=message.data_sig,
    )
    assert not verify_message(scheme, 1, tampered)


def test_verify_rejects_sender_spoofing(scheme):
    message = signed(scheme, 0)
    spoofed = type(message)(
        msg_type=message.msg_type,
        view=message.view,
        round=message.round,
        sender=3,
        data=message.data,
        view_sig=message.view_sig,
        data_sig=message.data_sig,
    )
    assert not verify_message(scheme, 1, spoofed)


def test_verify_rejects_missing_signature(scheme):
    message = signed(scheme, 0)
    unsigned = type(message)(
        msg_type=message.msg_type,
        view=message.view,
        round=message.round,
        sender=0,
        data=message.data,
        view_sig=None,
        data_sig=None,
    )
    assert not verify_message(scheme, 1, unsigned)


def test_wire_size_includes_signatures_and_payload(scheme):
    small = signed(scheme, 0, data="x")
    block = make_block(GENESIS, 0, 1, 3, [])
    large = make_message(scheme, 0, MessageType.PROPOSE, 1, block)
    assert small.wire_size_bytes >= 16 + 1 + 2 * 128
    assert large.wire_size_bytes > small.wire_size_bytes


def test_data_digest_stable_for_blocks(scheme):
    block = make_block(GENESIS, 0, 1, 3, [])
    assert message_data_digest(block) == block.block_hash


def test_make_qc_from_matching_messages(scheme):
    votes = [signed(scheme, i, data="h") for i in range(3)]
    qc = make_qc(votes)
    assert len(qc.signatures) == 3
    assert qc.signers == (0, 1, 2)
    assert verify_qc(scheme, 9, qc, threshold=3)


def test_make_qc_deduplicates_signers(scheme):
    votes = [signed(scheme, 0, data="h"), signed(scheme, 0, data="h"), signed(scheme, 1, data="h")]
    qc = make_qc(votes)
    assert len(qc.signatures) == 2


def test_make_qc_rejects_mixed_types_or_digests(scheme):
    with pytest.raises(ValueError):
        make_qc([signed(scheme, 0, data="a"), signed(scheme, 1, data="b")])
    with pytest.raises(ValueError):
        make_qc(
            [
                signed(scheme, 0, data="a", msg_type=MessageType.CERTIFY),
                signed(scheme, 1, data="a", msg_type=MessageType.VOTE),
            ]
        )
    with pytest.raises(ValueError):
        make_qc([])


def test_verify_qc_fails_below_threshold(scheme):
    votes = [signed(scheme, i, data="h") for i in range(2)]
    qc = make_qc(votes)
    assert not verify_qc(scheme, 9, qc, threshold=3)


def test_verify_qc_fails_for_wrong_digest(scheme):
    votes = [signed(scheme, i, data="h") for i in range(3)]
    qc = make_qc(votes)
    forged = type(qc)(
        cert_type=qc.cert_type,
        view=qc.view,
        digest=message_data_digest("other"),
        signers=qc.signers,
        signatures=qc.signatures,
    )
    assert not verify_qc(scheme, 9, forged, threshold=3)


def test_view_qc_aggregates_view_signatures(scheme):
    blames = [make_message(scheme, i, MessageType.BLAME, 2, None) for i in range(3)]
    qc = make_view_qc(blames)
    assert qc.cert_type == MessageType.BLAME
    assert verify_view_qc(scheme, 5, qc, threshold=3)


def test_view_qc_tolerates_heterogeneous_payloads(scheme):
    blames = [
        make_message(scheme, 0, MessageType.BLAME, 2, None),
        make_message(scheme, 1, MessageType.BLAME, 2, "proof-a"),
        make_message(scheme, 2, MessageType.BLAME, 2, "proof-b"),
    ]
    qc = make_view_qc(blames)
    assert verify_view_qc(scheme, 5, qc, threshold=3)


def test_view_qc_rejects_wrong_view_on_verify(scheme):
    blames = [make_message(scheme, i, MessageType.BLAME, 2, None) for i in range(3)]
    qc = make_view_qc(blames)
    forged = type(qc)(
        cert_type=qc.cert_type,
        view=3,
        digest=qc.digest,
        signers=qc.signers,
        signatures=qc.signatures,
    )
    assert not verify_view_qc(scheme, 5, forged, threshold=3)


def test_qc_wire_size_counts_signatures(scheme):
    votes = [signed(scheme, i, data="h") for i in range(3)]
    qc = make_qc(votes)
    assert qc.wire_size_bytes >= 3 * 128
