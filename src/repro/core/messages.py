"""Protocol messages and quorum certificates (Algorithm 1 of the paper).

Every protocol message carries its type, the view it belongs to, a payload,
and two signatures by the sender: ``view_sig`` over (type, view) and
``data_sig`` over (data, view), mirroring the ``Msg`` helper of
Algorithm 1.  ``n/2 + 1`` (= f + 1) matching signed messages of the same
type and view combine into a :class:`QuorumCertificate` via :func:`make_qc`.

Wire sizes are tracked explicitly because the energy model charges radio
energy per byte: a message's size is its header, its payload and its
signatures.

What is signed is a property a message is *constructed with*: every
composite protocol payload is a frozen :class:`PayloadRecord` whose digest
is built from its children's digests, :func:`make_message` computes that
digest once and signs it, and because a message can only be constructed
around one of the immutable :data:`PAYLOAD_TYPES` the n receivers of a
flooded message reuse the digest, the wire size and the verification verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from typing import Any, Optional, Tuple

from repro.core.blocks import Block
from repro.core.types import Command, NodeId, Round, View
from repro.crypto.hashing import sha256_hex, structural_digest
from repro.crypto.signatures import Signature, SignatureScheme

#: Fixed per-message header bytes (type, view, round, sender).
MESSAGE_HEADER_BYTES = 16


class MessageType(str, Enum):
    """All message types used by EESMR and the baseline protocols."""

    # EESMR steady state.
    PROPOSE = "propose"
    # EESMR view change.
    BLAME = "blame"
    BLAME_QC = "blame_qc"
    COMMIT_UPDATE = "commit_update"
    CERTIFY = "certify"
    COMMIT_QC = "commit_qc"
    NEW_VIEW_PROPOSAL = "new_view_proposal"
    VOTE = "vote"
    # Sync HotStuff / OptSync specific.
    SHS_PROPOSE = "shs_propose"
    SHS_VOTE = "shs_vote"
    SHS_STATUS = "shs_status"
    # Trusted baseline.
    TB_REQUEST = "tb_request"
    TB_ORDER = "tb_order"
    # Catch-up state transfer (all protocol families, repro.recovery).
    SYNC_REQUEST = "sync_request"
    SYNC_RESPONSE = "sync_response"


def payload_wire_size(payload: Any) -> int:
    """Estimate the wire size of a message payload in bytes."""
    if payload is None:
        return 0
    if isinstance(payload, Block):
        return payload.wire_size_bytes
    if isinstance(payload, QuorumCertificate):
        return payload.wire_size_bytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (list, tuple)):
        return sum(payload_wire_size(item) for item in payload)
    if isinstance(payload, dict):
        return sum(payload_wire_size(v) + 8 for v in payload.values())
    size = getattr(payload, "wire_size_bytes", None)
    if size is not None:
        return int(size)
    return 32


def view_signing_input(msg_type: MessageType, view: View) -> bytes:
    """The bytes ``viewSig`` covers: the message (or certificate) type and view."""
    return f"view|{msg_type.value!r}|{view!r}".encode()


def data_signing_input(digest: str, view: View) -> bytes:
    """The bytes ``dataSig`` covers: the payload digest and view.

    Together with :func:`view_signing_input` this is the only place the
    signed format exists: a domain word and the two values as Python
    literals (self-delimiting and type-distinguishing, so ``1``, ``True``
    and ``"1"`` never share bytes).  A signer builds them once per message,
    its first verifier once more, and the scheme receives bytes.
    """
    return f"data|{digest!r}|{view!r}".encode()


# ----------------------------------------------------------- payload records
def _require(value: Any, kind: Any, what: str) -> None:
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{what} must be {kind}, got {type(value).__name__}")


def _require_all(values: Any, kind: Any, what: str) -> None:
    _require(values, tuple, what)
    for value in values:
        _require(value, kind, f"every element of {what}")


def _child_digest(value: Any) -> Any:
    """What a record's digest commits to for one field value."""
    if isinstance(value, Block):
        return value.block_hash
    if isinstance(value, QuorumCertificate):
        return value.content_digest
    if isinstance(value, Command):
        return value.digest
    if isinstance(value, ProtocolMessage):
        return [value.msg_type.value, value.view, value.round, value.sender, value.data_digest]
    if isinstance(value, tuple):
        return [_child_digest(item) for item in value]
    return value


class PayloadRecord:
    """Base of the typed, immutable composite payloads.

    Every subclass is a frozen dataclass whose fields are checked at
    construction to hold only blocks, certificates, commands, signed
    messages, primitives and tuples of those, so a record cannot change
    after it is signed and its digest, wire size and verification verdict
    may be computed once per message.
    """

    @cached_property
    def wire_size_bytes(self) -> int:
        """Bytes on the wire: each field plus an 8-byte field header."""
        return sum(payload_wire_size(getattr(self, f.name)) + 8 for f in fields(self))

    @cached_property
    def digest(self) -> str:
        """Structural digest: H(record type, child digests in field order).

        Blocks contribute ``block_hash``, certificates their
        ``content_digest``, commands their ``digest``, a carried message its
        type, view, round, sender and payload digest; the record type is the
        domain tag, so two records of different types never share a digest.
        """
        return structural_digest(
            [type(self).__name__, *(_child_digest(getattr(self, f.name)) for f in fields(self))]
        )


@dataclass(frozen=True)
class CertifiedBlock(PayloadRecord):
    """A block and the certificate that justifies it (``SHS_PROPOSE`` / ``SHS_STATUS``)."""

    block: Block
    cert: Optional[QuorumCertificate] = None

    def __post_init__(self) -> None:
        _require(self.block, Block, "block")
        _require(self.cert, (QuorumCertificate, type(None)), "cert")


@dataclass(frozen=True)
class NewViewProposal(PayloadRecord):
    """EESMR round 1 of a new view: the block and the commit certificates it extends."""

    block: Block
    status: Tuple[QuorumCertificate, ...] = ()

    def __post_init__(self) -> None:
        _require(self.block, Block, "block")
        _require_all(self.status, QuorumCertificate, "status")


@dataclass(frozen=True)
class Round2Proposal(PayloadRecord):
    """EESMR round 2 of a new view: the vote certificate for the round-1 block."""

    qc: QuorumCertificate
    block_hash: str

    def __post_init__(self) -> None:
        _require(self.qc, QuorumCertificate, "qc")
        _require(self.block_hash, str, "block_hash")


@dataclass(frozen=True)
class SyncRequest(PayloadRecord):
    """Catch-up request: send me what you committed above ``height``."""

    height: int

    def __post_init__(self) -> None:
        _require(self.height, int, "height")


@dataclass(frozen=True)
class SyncResponse(PayloadRecord):
    """Catch-up reply: a committed suffix, its tip certificate if any, the server's height."""

    blocks: Tuple[Block, ...]
    cert: Optional[QuorumCertificate]
    height: int

    def __post_init__(self) -> None:
        _require_all(self.blocks, Block, "blocks")
        _require(self.cert, (QuorumCertificate, type(None)), "cert")
        _require(self.height, int, "height")


@dataclass(frozen=True)
class ClientRequest(PayloadRecord):
    """Trusted baseline: the pending commands a CPS node uploads (``TB_REQUEST``)."""

    commands: Tuple[Command, ...]

    def __post_init__(self) -> None:
        _require_all(self.commands, Command, "commands")

    @cached_property
    def wire_size_bytes(self) -> int:
        """The commands back to back, no field header: the golden fingerprints
        price a request as its commands alone."""
        return sum(command.wire_size_bytes for command in self.commands)


@dataclass(frozen=True)
class ProtocolMessage:
    """A signed protocol message.

    Attributes:
        msg_type: The message type (Algorithm 1's ``m.type``).
        view: The view the message belongs to (``m.view``).
        round: The round the message refers to (0 when not applicable).
        sender: Node id of the signer.
        data: The payload, one of :data:`PAYLOAD_TYPES` (block, block hash,
            QC, payload record or nothing).
        view_sig: Signature over (type, view) — ``m.viewSig``.
        data_sig: Signature over (data digest, view) — ``m.dataSig``.
    """

    msg_type: MessageType
    view: View
    round: Round
    sender: NodeId
    data: Any
    view_sig: Optional[Signature] = None
    data_sig: Optional[Signature] = None

    def __post_init__(self) -> None:
        # The set is closed so that nothing a message carries can change
        # after it is signed: its digest, wire size and verification
        # verdict are then facts about the object, computed once.
        if not isinstance(self.data, PAYLOAD_TYPES):
            raise TypeError(
                f"a message carries one of PAYLOAD_TYPES, got {type(self.data).__name__}"
            )

    @cached_property
    def data_digest(self) -> str:
        """Digest of the payload used for signing and vote matching."""
        return message_data_digest(self.data)

    @cached_property
    def wire_size_bytes(self) -> int:
        """Bytes on the wire: header + payload + signatures."""
        size = MESSAGE_HEADER_BYTES + payload_wire_size(self.data)
        for signature in (self.view_sig, self.data_sig):
            if signature is not None:
                size += signature.size_bytes
        return size


@dataclass(frozen=True)
class EquivocationProof(PayloadRecord):
    """Two conflicting signed proposals: the transferable evidence in an EESMR ``BLAME``."""

    first: ProtocolMessage
    second: ProtocolMessage

    def __post_init__(self) -> None:
        _require(self.first, ProtocolMessage, "first")
        _require(self.second, ProtocolMessage, "second")

    @cached_property
    def wire_size_bytes(self) -> int:
        """The two proposals back to back, no field headers: the golden
        fingerprints price a proof as its evidence alone."""
        return self.first.wire_size_bytes + self.second.wire_size_bytes


def message_data_digest(data: Any) -> str:
    """Canonical digest of a message payload (one of :data:`PAYLOAD_TYPES`)."""
    if isinstance(data, Block):
        return data.block_hash
    if isinstance(data, (QuorumCertificate, PayloadRecord)):
        return data.digest
    return sha256_hex(data)


def make_message(
    scheme: SignatureScheme,
    sender: NodeId,
    msg_type: MessageType,
    view: View,
    data: Any,
    round_number: Round = 0,
) -> ProtocolMessage:
    """Create and sign a protocol message (Algorithm 1's ``Msg`` function).

    The payload digest is computed once here, signed, and seeded into the
    message, so the n verifications of a flood all reuse one computation.
    """
    digest = message_data_digest(data)
    message = ProtocolMessage(
        msg_type=msg_type,
        view=view,
        round=round_number,
        sender=sender,
        data=data,
        view_sig=scheme.sign(sender, view_signing_input(msg_type, view)),
        data_sig=scheme.sign(sender, data_signing_input(digest, view)),
    )
    message.__dict__["data_digest"] = digest
    return message


def verify_message(scheme: SignatureScheme, verifier: NodeId, message: ProtocolMessage) -> bool:
    """Verify both signatures of a protocol message.

    The outcome is verifier-independent, so it is memoized per (message,
    scheme): after the first replica checks a flooded message, the other
    n-1 replicas reuse the verdict.  Their per-verifier operation counts
    (Table 3) are still recorded via :meth:`SignatureScheme.note_verify`,
    and verification *energy* is charged by the replica layer either way —
    only the redundant HMAC work is skipped.
    """
    if message.view_sig is None or message.data_sig is None:
        return False
    if message.view_sig.signer != message.sender or message.data_sig.signer != message.sender:
        return False
    memo = message.__dict__.get("_verified_by")
    if memo is not None and memo[0] is scheme:
        scheme.note_verify(verifier, 2)
        return memo[1]
    view_ok = scheme.verify(
        verifier, view_signing_input(message.msg_type, message.view), message.view_sig
    )
    data_ok = scheme.verify(
        verifier, data_signing_input(message.data_digest, message.view), message.data_sig
    )
    result = view_ok and data_ok
    message.__dict__["_verified_by"] = (scheme, result)
    return result


@dataclass(frozen=True)
class QuorumCertificate:
    """A certificate of f+1 matching signed messages (Algorithm 1's ``QC``)."""

    cert_type: MessageType
    view: View
    digest: str
    signers: Tuple[NodeId, ...]
    signatures: Tuple[Signature, ...] = field(default_factory=tuple)
    block: Optional[Block] = None

    @cached_property
    def wire_size_bytes(self) -> int:
        """Bytes of the certificate: digest + all contained signatures."""
        signature_bytes = sum(sig.size_bytes for sig in self.signatures)
        block_bytes = self.block.wire_size_bytes if self.block is not None else 0
        return 32 + signature_bytes + block_bytes

    @cached_property
    def content_digest(self) -> str:
        """Structural digest of the whole certificate.

        ``digest`` is only what the signers signed; this also commits to
        the type, view, signer list, every signature and the attached
        block, which is what a payload record carrying the certificate
        must bind.
        """
        return structural_digest(
            [
                "QuorumCertificate",
                self.cert_type.value,
                self.view,
                self.digest,
                list(self.signers),
                [[sig.signer, sig.scheme, sig.tag] for sig in self.signatures],
                self.block.block_hash if self.block is not None else None,
            ]
        )


#: Everything a :class:`ProtocolMessage` may carry.  None of these types can
#: change after construction, which is what makes the per-message digest,
#: wire size and verification verdict sound to compute once.
PAYLOAD_TYPES = (Block, QuorumCertificate, PayloadRecord, str, type(None))


def make_qc(messages: list[ProtocolMessage], block: Optional[Block] = None) -> QuorumCertificate:
    """Combine matching signed messages into a quorum certificate.

    All messages must share the same type, view and data digest; duplicate
    signers are collapsed.
    """
    if not messages:
        raise ValueError("cannot build a QC from zero messages")
    first = messages[0]
    for message in messages[1:]:
        if message.msg_type != first.msg_type or message.view != first.view:
            raise ValueError("QC messages must share type and view")
        if message.data_digest != first.data_digest:
            raise ValueError("QC messages must share the same data digest")
    seen: dict[NodeId, Signature] = {}
    for message in messages:
        if message.data_sig is not None and message.sender not in seen:
            seen[message.sender] = message.data_sig
    return QuorumCertificate(
        cert_type=first.msg_type,
        view=first.view,
        digest=first.data_digest,
        signers=tuple(sorted(seen)),
        signatures=tuple(seen[s] for s in sorted(seen)),
        block=block,
    )


def make_view_qc(messages: list[ProtocolMessage]) -> QuorumCertificate:
    """Combine messages into a QC over their *view signatures*.

    Blame certificates do not care about the payload (a blame may carry an
    equivocation proof or nothing at all); Algorithm 1's ``QC`` function
    aggregates the ``viewSig`` fields — signatures over (type, view) — which
    is what this constructor does.
    """
    if not messages:
        raise ValueError("cannot build a QC from zero messages")
    first = messages[0]
    for message in messages[1:]:
        if message.msg_type != first.msg_type or message.view != first.view:
            raise ValueError("QC messages must share type and view")
    seen: dict[NodeId, Signature] = {}
    for message in messages:
        if message.view_sig is not None and message.sender not in seen:
            seen[message.sender] = message.view_sig
    return QuorumCertificate(
        cert_type=first.msg_type,
        view=first.view,
        digest=sha256_hex(view_signing_input(first.msg_type, first.view)),
        signers=tuple(sorted(seen)),
        signatures=tuple(seen[s] for s in sorted(seen)),
    )


def _verify_certificate(
    scheme: SignatureScheme,
    verifier: NodeId,
    qc: QuorumCertificate,
    threshold: int,
    over_view: bool,
) -> bool:
    """Whether ``qc`` carries ``threshold`` distinct valid signatures.

    ``over_view`` selects what they cover: (type, view) for a
    view-signature QC, (digest, view) otherwise; the signed bytes are built
    once for the whole certificate.  The count of valid signatures is
    memoized per (certificate, scheme): replicas after the first reuse it
    but still book their verification operations via
    :meth:`SignatureScheme.note_verify`.
    """
    if len(set(qc.signers)) < threshold:
        return False
    if len(qc.signers) != len(qc.signatures):
        return False
    slot = "_view_valid_by" if over_view else "_data_valid_by"
    memo = qc.__dict__.get(slot)
    if memo is not None and memo[0] is scheme:
        scheme.note_verify(verifier, len(qc.signatures))
        return memo[1] >= threshold
    if over_view:
        signed = view_signing_input(qc.cert_type, qc.view)
    else:
        signed = data_signing_input(qc.digest, qc.view)
    valid = 0
    for signer, signature in zip(qc.signers, qc.signatures):
        if signature.signer != signer:
            # A signature not by its declared signer: reject the QC
            # outright; this adversarial shape is never memoized.
            return False
        if scheme.verify(verifier, signed, signature):
            valid += 1
    qc.__dict__[slot] = (scheme, valid)
    return valid >= threshold


def verify_view_qc(
    scheme: SignatureScheme,
    verifier: NodeId,
    qc: QuorumCertificate,
    threshold: int,
) -> bool:
    """Verify a view-signature QC (e.g. a blame certificate)."""
    return _verify_certificate(scheme, verifier, qc, threshold, over_view=True)


def verify_qc(
    scheme: SignatureScheme,
    verifier: NodeId,
    qc: QuorumCertificate,
    threshold: int,
) -> bool:
    """Verify a quorum certificate: enough distinct valid signatures over the digest."""
    return _verify_certificate(scheme, verifier, qc, threshold, over_view=False)
