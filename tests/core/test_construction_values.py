"""Values set at construction equal the lazy formulas they replaced.

A payload record's ``digest`` and ``wire_size_bytes``, a message's
``wire_size_bytes`` and a signature's ``size_bytes`` are stored when the
object is built.  The reference functions below are the earlier lazy
definitions, copied verbatim (with ``json.dumps`` as the encoder), so a
construction-time value that drifts from them fails here before any pin
moves.  The objects also keep what a frozen dataclass promises: no
assignment, ``replace()``, equality and hashing over the declared fields
only, and a pickle round trip (matrix workers cross a process pool).
"""

import hashlib
import json
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.core.blocks import GENESIS, Block, make_block
from repro.core.messages import (
    MESSAGE_HEADER_BYTES,
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
    _child_digest,
    make_message,
    make_qc,
    message_data_digest,
    payload_wire_size,
    view_signing_input,
)
from repro.core.types import Command
from repro.crypto.energy_costs import signature_cost
from repro.crypto.hashing import sha256_hex
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import Signature, available_schemes, make_scheme

BLOCK = make_block(GENESIS, 0, 1, 3, [Command("c0"), Command("c1")])
CHILD = make_block(BLOCK, 0, 1, 4, [Command("c2")])
COMMANDS = tuple(Command(f"c{i}", payload_size_bytes=16 + i) for i in range(4))


# ------------------------------------------------- the lazy formulas, copied
def reference_structural_digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def reference_record_wire_size(record):
    if isinstance(record, ClientRequest):
        return sum(command.wire_size_bytes for command in record.commands)
    if isinstance(record, EquivocationProof):
        return record.first.wire_size_bytes + record.second.wire_size_bytes
    return sum(payload_wire_size(getattr(record, f.name)) + 8 for f in fields(record))


def reference_record_digest(record):
    return reference_structural_digest(
        [type(record).__name__, *(_child_digest(getattr(record, f.name)) for f in fields(record))]
    )


def reference_message_wire_size(message):
    size = MESSAGE_HEADER_BYTES + payload_wire_size(message.data)
    for signature in (message.view_sig, message.data_sig):
        if signature is not None:
            size += signature.size_bytes
    return size


def reference_data_digest(data):
    if isinstance(data, Block):
        return data.block_hash
    if isinstance(data, (QuorumCertificate, PayloadRecord)):
        return data.digest
    return sha256_hex(data)


# ------------------------------------------------------------------ fixtures
def scheme_named(name):
    scheme = make_scheme(name, KeyStore(seed=11))
    scheme.keystore.generate(range(4))
    return scheme


def certificate(scheme, block=BLOCK, msg_type=MessageType.CERTIFY):
    votes = [make_message(scheme, s, msg_type, 1, block.block_hash) for s in (0, 1, 2)]
    return make_qc(votes, block=block)


def records(scheme):
    """At least one instance of every payload record type, with each optional part."""
    cert = certificate(scheme)
    vote_qc = make_qc([make_message(scheme, s, MessageType.VOTE, 2, "d") for s in (0, 1, 2)])
    first, second = (
        make_message(scheme, 0, MessageType.PROPOSE, 1, block, round_number=3)
        for block in (BLOCK, CHILD)
    )
    return [
        CertifiedBlock(BLOCK),
        CertifiedBlock(CHILD, cert),
        NewViewProposal(CHILD),
        NewViewProposal(CHILD, (cert, certificate(scheme, CHILD))),
        Round2Proposal(vote_qc, CHILD.block_hash),
        SyncRequest(0),
        SyncRequest(7),
        SyncResponse((), None, 0),
        SyncResponse((BLOCK, CHILD), cert, 4),
        ClientRequest(()),
        ClientRequest(COMMANDS),
        EquivocationProof(first, second),
    ]


def payloads(scheme):
    """Every kind of payload a message may carry."""
    return [BLOCK, certificate(scheme), *records(scheme), BLOCK.block_hash, "", None]


# ----------------------------------------------------------------- the tests
def test_the_records_cover_every_payload_record_type():
    built = {type(record) for record in records(scheme_named("rsa-1024"))}
    declared = {
        cls for cls in PayloadRecord.__subclasses__() if cls.__module__ == PayloadRecord.__module__
    }
    assert built == declared


@pytest.mark.parametrize("name", available_schemes())
def test_record_digest_and_size_equal_the_lazy_formulas(name):
    for record in records(scheme_named(name)):
        assert record.digest == reference_record_digest(record), type(record).__name__
        assert record.wire_size_bytes == reference_record_wire_size(record), type(record).__name__


@pytest.mark.parametrize("name", available_schemes())
def test_message_digest_and_size_equal_the_lazy_formulas(name):
    scheme = scheme_named(name)
    for data in payloads(scheme):
        signed = make_message(scheme, 1, MessageType.PROPOSE, 2, data, round_number=3)
        unsigned = ProtocolMessage(MessageType.PROPOSE, 2, 3, 1, data, None, None)
        for message in (signed, unsigned):
            assert message.wire_size_bytes == reference_message_wire_size(message)
            assert message.data_digest == reference_data_digest(data)
        assert message_data_digest(data) == reference_data_digest(data)


@pytest.mark.parametrize("name", available_schemes())
def test_signature_size_equals_the_scheme_cost(name):
    scheme = scheme_named(name)
    signature = scheme.sign(0, b"payload")
    assert signature.size_bytes == signature_cost(name).signature_size_bytes
    rebuilt = Signature(signature.signer, signature.scheme, signature.tag)
    assert rebuilt.size_bytes == signature.size_bytes


def test_view_signing_input_is_the_literal_format():
    for msg_type in MessageType:
        for view in (0, 1, 17):
            assert view_signing_input(msg_type, view) == f"view|{msg_type.value!r}|{view!r}".encode()


def test_messages_and_signatures_stay_frozen():
    scheme = scheme_named("rsa-1024")
    message = make_message(scheme, 1, MessageType.PROPOSE, 2, BLOCK)
    signature = message.data_sig
    for obj, name, value in (
        (message, "view", 9),
        (message, "wire_size_bytes", 0),
        (signature, "tag", "0"),
        (signature, "size_bytes", 0),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, value)
    record = CertifiedBlock(BLOCK)
    with pytest.raises(FrozenInstanceError):
        record.block = CHILD


def test_replace_rebuilds_and_resizes():
    scheme = scheme_named("ecdsa-secp256k1")
    message = make_message(scheme, 1, MessageType.PROPOSE, 2, BLOCK)
    moved = replace(message, data=CHILD)
    assert moved.data is CHILD
    assert moved.wire_size_bytes == reference_message_wire_size(moved)
    assert moved.data_digest == CHILD.block_hash
    unsigned = replace(message, view_sig=None, data_sig=None)
    assert unsigned.wire_size_bytes == MESSAGE_HEADER_BYTES + BLOCK.wire_size_bytes
    resigned = replace(message.data_sig, scheme="rsa-1024")
    assert resigned.size_bytes == signature_cost("rsa-1024").signature_size_bytes
    with pytest.raises(ValueError):
        replace(message, wire_size_bytes=1)
    record = replace(CertifiedBlock(BLOCK), block=CHILD)
    assert record.digest == reference_record_digest(record)
    assert record.wire_size_bytes == reference_record_wire_size(record)


def test_equality_and_hashing_ignore_the_size_fields():
    scheme = scheme_named("rsa-1024")
    message = make_message(scheme, 1, MessageType.PROPOSE, 2, BLOCK)
    twin = ProtocolMessage(MessageType.PROPOSE, 2, 0, 1, BLOCK, message.view_sig, message.data_sig)
    object.__setattr__(twin, "wire_size_bytes", message.wire_size_bytes + 1)
    assert twin == message and hash(twin) == hash(message)
    signature = message.view_sig
    resized = Signature(signature.signer, signature.scheme, signature.tag)
    object.__setattr__(resized, "size_bytes", signature.size_bytes + 1)
    assert resized == signature and hash(resized) == hash(signature)
    assert "wire_size_bytes" not in repr(message) and "size_bytes" not in repr(signature)


def test_messages_signatures_and_records_survive_a_pickle_round_trip():
    scheme = scheme_named("ecdsa-bp160r1")
    for data in payloads(scheme):
        message = make_message(scheme, 1, MessageType.PROPOSE, 2, data)
        copy = pickle.loads(pickle.dumps(message))
        assert copy == message
        assert copy.wire_size_bytes == message.wire_size_bytes
        assert copy.data_digest == message.data_digest
        assert copy.view_sig.size_bytes == message.view_sig.size_bytes
        if isinstance(data, PayloadRecord):
            assert (copy.data.digest, copy.data.wire_size_bytes) == (
                data.digest,
                data.wire_size_bytes,
            )
