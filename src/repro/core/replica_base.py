"""Shared replica machinery for all protocol implementations.

:class:`BaseReplica` wires a protocol state machine to the substrates:
the simulated network (for broadcast/unicast), the energy meter (for
radio, signing, verification and hashing charges), the key store and
signature scheme (for authentication), the block store, the committed log
and the transaction pool.  :class:`LeaderReplica` adds what the
leader-based protocols (EESMR, Sync HotStuff, OptSync) share:
commit-by-timer and the blame -> certificate -> quit-view phase.  The
trusted baseline subclasses :class:`BaseReplica` directly.

A handler only sees a message its type's :class:`Admit` rule admitted: the
rule is checked once, in :meth:`BaseReplica.on_message`, before dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import NoneType
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.core.blocks import Block, BlockStore, GENESIS
from repro.core.config import ProtocolConfig, RunStats
from repro.core.ledger import CommittedLog
from repro.core.messages import (
    EquivocationProof,
    MessageType,
    ProtocolMessage,
    QuorumCertificate,
    SyncRequest,
    SyncResponse,
    make_message,
    make_qc,
    verify_message,
    verify_qc,
)
from repro.core.txpool import ADMITTED, TxPool
from repro.core.types import Command, NodeId, Round, View
from repro.crypto.hashing import HashFunction
from repro.crypto.signatures import SignatureScheme
from repro.energy.meter import EnergyCategory, EnergyMeter
from repro.net.network import SimulatedNetwork
from repro.sim.process import Process
from repro.sim.scheduler import Simulator

_SIGN = EnergyCategory.SIGN
_VERIFY = EnergyCategory.VERIFY
_HASH = EnergyCategory.HASH


class InView(Enum):
    """The views a message type is taken from (:attr:`Admit.view`)."""

    CURRENT = "current"
    #: The current view; a later view's message goes to ``_buffer_future``.
    BUFFER_LATER = "current, later buffered"
    ANY = "any"


# ``on_message`` compares with these on every delivery, and each blame
# delivery sizes the blame certificate; reading a member off an Enum class
# costs ~0.1 µs on Python 3.11, a module global ~0.01 µs.
_ANY, _BUFFER_LATER = InView.ANY, InView.BUFFER_LATER
_BLAME = MessageType.BLAME


@dataclass(frozen=True, slots=True)
class Admit:
    """What a message of one type must be before its handler runs.

    :meth:`BaseReplica.on_message` checks the fields in order (``from_leader``:
    the sender leads the message's view; ``certificate``: for a payload that
    is one, the ``cert_type`` it must have; ``guard``: the name of a method
    ``(message) -> bool``, the one free state check a type needs), then both
    signatures — every row verifies — then the certificate, by
    :meth:`BaseReplica.verify_quorum_certificate`.  A message refused before
    its signatures costs nothing.
    """

    payload: Union[type, Tuple[type, ...]]
    view: InView = InView.CURRENT
    from_leader: bool = False
    certificate: Optional[MessageType] = None
    guard: Optional[str] = None


class BaseReplica(Process):
    """Common state and helpers for protocol replicas."""

    #: The type of certificate that must cover a synced suffix's tip for
    #: it to be adopted.  Protocols with explicit certificates (Sync
    #: HotStuff, OptSync) name theirs — an uncertified suffix is never
    #: committed.  Certificate-free protocols (``None``: EESMR commits by
    #: quiet period, the trusted baseline by control-node signature) ignore
    #: any certificate a response carries and instead require matching
    #: responses from f+1 distinct peers, at least one of which is correct.
    tip_certificate: Optional[MessageType] = None
    #: Whether this replica attaches its highest certificate when serving
    #: sync responses (the planted recovery mutant flips this off).
    sync_serve_certificates = True
    #: Upper bound on blocks per sync response.
    sync_max_batch = 64

    #: ``MessageType`` -> (handler *name*, :class:`Admit` rule).  The name is
    #: resolved on the instance, so that overrides (OptSync's ``_on_vote``,
    #: adversaries, test mutants) are honoured.  Subclasses extend the table.
    _HANDLERS: Dict[MessageType, Tuple[str, Admit]] = {
        # Catch-up crosses views: the node asking is behind by definition.
        MessageType.SYNC_REQUEST: ("_on_sync_request", Admit(SyncRequest, InView.ANY)),
        MessageType.SYNC_RESPONSE: ("_on_sync_response", Admit(SyncResponse, InView.ANY)),
    }

    def __init__(
        self,
        sim: Simulator,
        pid: NodeId,
        config: ProtocolConfig,
        scheme: SignatureScheme,
        network: SimulatedNetwork,
        meter: EnergyMeter,
    ) -> None:
        super().__init__(sim, pid)
        self.config = config
        self.scheme = scheme
        self.network = network
        self.meter = meter
        self.hash_fn = HashFunction()
        # Energy is charged as tally increments at slots interned once:
        # sign and verify have one unit cost per scheme, a hash one per
        # wire size (looked up on first sight of each size).
        units = meter.units
        self._sign_slot = units.slot(_SIGN, scheme.sign_energy_j)
        self._verify_slot = units.slot(_VERIFY, scheme.verify_energy_j)
        self._hash_slots: Dict[int, int] = {}

        self.blocks = BlockStore()
        self.log = CommittedLog(pid, self.blocks)
        self.txpool = TxPool(max_size=config.txpool_limit)
        self.stats = RunStats()

        self.v_cur: View = 1
        self.r_cur: Round = 3
        self.b_lock: Block = GENESIS
        self.b_com: Block = GENESIS

        #: Optional session observer bus (``repro.session.observers``).
        #: When set, the replica reports block commits and completed view
        #: changes through it; ``None`` keeps the hot path hook-free.
        self.hooks: Optional[Any] = None

        #: Certificate-free sync adoption state: (height, tip hash) ->
        #: distinct responders vouching for that tip (see
        #: :meth:`_on_sync_response`).
        self._sync_confirmations: Dict[Tuple[int, str], Set[int]] = {}

    # --------------------------------------------------------------- leader
    def leader_of(self, view: View) -> NodeId:
        """The leader of ``view`` according to the configured schedule."""
        return self.config.leader_of(view)

    def is_leader(self, view: View) -> bool:
        """Whether this replica leads ``view``."""
        return self.leader_of(view) == self.pid

    # ------------------------------------------------------------ messaging
    def sign_message(
        self,
        msg_type: MessageType,
        data: Any,
        view: Optional[View] = None,
        round_number: Round = 0,
    ) -> ProtocolMessage:
        """Create a signed protocol message and charge signing energy.

        The ``Msg`` helper signs twice (viewSig and dataSig): two sign
        operations per message.
        """
        message = make_message(
            self.scheme,
            self.pid,
            msg_type,
            view if view is not None else self.v_cur,
            data,
            round_number=round_number,
        )
        self.meter.tally[self._sign_slot] += 2
        return message

    def verify_signed_message(self, message: ProtocolMessage) -> bool:
        """Verify a message's signatures and charge verification energy.

        A replica never re-verifies its own signatures (it produced them),
        so self-addressed deliveries are free — this keeps the leader's
        steady-state verification count at zero, as in the paper's model.
        """
        if message.sender == self.pid:
            return True
        self.meter.tally[self._verify_slot] += 2
        return verify_message(self.scheme, self.pid, message)

    def certificate_quorum(self, cert_type: MessageType) -> int:
        """Signers a certificate of ``cert_type`` needs here: f + 1.

        The one quorum rule: a replica sizes the certificates it builds with
        it, verifies the ones it adopts against it, and the invariant battery
        audits every certificate a replica holds against its holder's rule.
        """
        return self.config.quorum

    def verify_quorum_certificate(self, qc: QuorumCertificate, cert_type: MessageType) -> bool:
        """Verify a certificate adopted as ``cert_type``, charging one verify per signature.

        A certificate of another type vouches for nothing and is refused for
        free; otherwise it needs :meth:`certificate_quorum` valid signers.
        """
        if qc.cert_type is not cert_type:
            return False
        self.meter.tally[self._verify_slot] += len(qc.signatures)
        return verify_qc(self.scheme, self.pid, qc, self.certificate_quorum(cert_type))

    def held_certificates(self) -> Iterable[QuorumCertificate]:
        """Every certificate this replica holds, for the auditor (none by default)."""
        return ()

    def charge_block_hash(self, block: Block) -> None:
        """Charge the energy of hashing a block (chaining / digest checks)."""
        size = block.wire_size_bytes
        slots = self._hash_slots
        if size not in slots:
            slots[size] = self.meter.units.slot(_HASH, self.hash_fn.energy_for_size(size))
        self.meter.tally[slots[size]] += 1

    def broadcast(self, message: ProtocolMessage) -> None:
        """Flood a message to all nodes via the simulated network."""
        self.network.broadcast(self.pid, message)

    def send(self, destination: NodeId, message: ProtocolMessage) -> None:
        """Point-to-point send."""
        self.network.send(self.pid, destination, message)

    # ---------------------------------------------------------------- blocks
    def next_batch(self, parent: Block) -> List[Command]:
        """The commands the leader puts in the block extending ``parent``.

        The first ``batch_size`` pooled commands that no uncommitted
        ancestor of ``parent`` already carries.  The in-flight set is read
        off the chain being extended, so there is nothing to release: a
        block a view change abandoned is not on the new leader's walk and
        its commands are proposed again.
        """
        in_flight: Set[str] = set()
        for block in self.blocks.iter_ancestors(parent):
            if block.block_hash in self.log:
                break
            in_flight.update(block.batch.command_ids)
        return self.txpool.peek_batch(self.config.batch_size, in_flight)

    def store_block(self, block: Block) -> None:
        """Record a block (and charge the hash-check energy once)."""
        if self.blocks.add_if_absent(block):
            self.charge_block_hash(block)

    def commit_chain(self, block: Block) -> List[Block]:
        """Commit ``block`` and its ancestors; update b_com and the txpool."""
        if not self.blocks.has_ancestry(block):
            # Chain synchronization failed: refuse to commit a dangling block.
            return []
        newly_committed = self.log.commit(block)
        if block.height > self.b_com.height:
            self.b_com = block
        hooks = self.hooks
        for committed in newly_committed:
            self.stats.blocks_committed += 1
            self.txpool.remove(committed.batch.command_ids)
            # Each hook sees the pool as that block's commit left it.
            if hooks is not None:
                hooks.block_commit(self.pid, committed, self.v_cur, self.sim.now)
        return newly_committed

    # ------------------------------------------------- catch-up state transfer
    # The repro.recovery subsystem drives this protocol: a
    # RecoveryController makes a healed/rebooted node call
    # :meth:`request_sync`; live peers answer from their committed log via
    # :meth:`_on_sync_request`; the recovering node adopts (in
    # :meth:`_on_sync_response`) only suffixes that verifiably extend its
    # own committed chain.  All messages ride the normal unicast path, so
    # radio and crypto energy accounting stays honest.

    def restart(self) -> None:
        """Power back on after a :class:`CrashRecoverWindow` (state intact).

        The node rejoins passively: dead protocol timers are not re-armed;
        the recovery controller closes the height gap via catch-up sync,
        and the replica answers any new protocol traffic normally.
        """
        self.recover()

    def request_sync(self, peer: NodeId) -> None:
        """Solicit missing blocks above our committed height from ``peer``."""
        message = self.sign_message(MessageType.SYNC_REQUEST, SyncRequest(self.committed_height))
        self.send(peer, message)

    def _sync_tip_certificate(self, tip: Block) -> Optional[QuorumCertificate]:
        """The certificate this replica can attach for a served tip, if any."""
        return None

    def _on_sync_request(self, message: ProtocolMessage) -> None:
        data = message.data
        mine = self.committed_height
        if data.height >= mine:
            return
        base = max(data.height, 0)
        top = min(mine, base + self.sync_max_batch)
        suffix = []
        for height in range(base + 1, top + 1):
            block = self.log.block_at(height)
            if block is None:
                return
            suffix.append(block)
        if not suffix:
            return
        cert = None
        if self.sync_serve_certificates:
            cert = self._sync_tip_certificate(suffix[-1])
        reply = self.sign_message(
            MessageType.SYNC_RESPONSE, SyncResponse(tuple(suffix), cert, mine)
        )
        self.send(message.sender, reply)

    def _on_sync_response(self, message: ProtocolMessage) -> None:
        data = message.data
        if not data.blocks:
            return
        blocks = data.blocks
        for parent, child in zip(blocks, blocks[1:]):
            if child.parent_hash != parent.block_hash or child.height != parent.height + 1:
                return
        tip = blocks[-1]
        if tip.height <= self.committed_height:
            return
        for block in blocks:
            self.store_block(block)
        # Refuse forked or dangling suffixes outright: the chain must run
        # through our own committed tip, or adopting it would conflict
        # with what we already executed (the controller rotates peers on
        # such failed attempts instead).
        if not self.blocks.has_ancestry(tip) or not self._sync_extends_commit(tip):
            return
        expected = self.tip_certificate
        if expected is not None:
            cert = data.cert
            if (
                cert is not None
                and cert.block is not None
                and cert.block.block_hash == tip.block_hash
                and self.verify_quorum_certificate(cert, expected)
            ):
                self.commit_chain(tip)
            return
        key = (tip.height, tip.block_hash)
        vouchers = self._sync_confirmations.setdefault(key, set())
        vouchers.add(message.sender)
        if len(vouchers) >= self.config.f + 1:
            self.commit_chain(tip)

    def _sync_extends_commit(self, tip: Block) -> bool:
        """Whether ``tip``'s ancestry runs through our committed tip."""
        block = tip
        while block.height > self.b_com.height:
            parent = self.blocks.get(block.parent_hash)
            if parent is None:
                return False
            block = parent
        return block.block_hash == self.b_com.block_hash

    # ---------------------------------------------------------------- client
    def submit_commands(self, commands: Iterable[Command]) -> int:
        """Inject client commands through pool admission (no radio energy).

        Returns how many commands were admitted; duplicates and overflow
        drops are counted on the pool (``TxPool.duplicates`` /
        ``TxPool.dropped``).
        """
        admitted = 0
        for command in commands:
            if self.txpool.admit(command) == ADMITTED:
                admitted += 1
        return admitted

    # -------------------------------------------------------------- dispatch
    def on_message(self, sender: int, message: Any) -> None:
        """Admit a delivered message by its type's :class:`Admit` rule, then run its handler."""
        if not isinstance(message, ProtocolMessage):
            return
        row = self._HANDLERS.get(message.msg_type)
        if row is None:
            return
        handler, admit = row
        if message.view != self.v_cur:
            view = admit.view
            if view is not _ANY:
                if view is _BUFFER_LATER and message.view > self.v_cur:
                    self._buffer_future(message)
                return
        if admit.from_leader and message.sender != self.leader_of(message.view):
            return
        data = message.data
        if not isinstance(data, admit.payload):
            return
        certificate = admit.certificate
        if certificate is not None and data.cert_type is not certificate:
            return
        if admit.guard is not None and not getattr(self, admit.guard)(message):
            return
        if not self.verify_signed_message(message):
            return
        if certificate is not None and not self.verify_quorum_certificate(data, certificate):
            return
        getattr(self, handler)(message)

    def _buffer_future(self, message: ProtocolMessage) -> None:
        """Hook: a ``BUFFER_LATER`` type's message for a later view arrived (default: drop it)."""

    @property
    def committed_height(self) -> int:
        """Height of the highest committed block."""
        return self.log.highest_height


class LeaderReplica(BaseReplica):
    """The skeleton of a leader-based synchronous protocol.

    EESMR and Sync HotStuff / OptSync share the first phase of the view
    change: blame a silent or equivocating leader, turn f+1 blames into a
    blame certificate, quit the view.  It is written here once; three hooks
    carry what differs: :meth:`_buffer_future`, :meth:`_on_blame_evidence`
    and :meth:`_quit_view`.
    """

    #: Timer name -> its duration as a whole multiple of Δ.  Every timer a
    #: protocol arms names its row, and :meth:`timer_delay` is the one read
    #: of ``config.delta``; subclasses declare their table.
    TIMERS: Mapping[str, int] = {}

    _HANDLERS = {
        **BaseReplica._HANDLERS,
        MessageType.BLAME: ("_on_blame", Admit((NoneType, EquivocationProof), InView.BUFFER_LATER)),
        MessageType.BLAME_QC: ("_on_blame_qc", Admit(
            QuorumCertificate,
            InView.BUFFER_LATER,
            certificate=MessageType.BLAME,
        )),
    }

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.leader_chain_tip: Block = self.blocks.genesis
        #: (view, slot) -> (first digest, its latest message).
        self.proposals_seen: Dict[Tuple[View, Round], Tuple[str, ProtocolMessage]] = {}
        self.commit_timers = self.make_timer_registry("t-commit")
        self.blame_timer = self.make_timer("t-blame", self._on_blame_timer)
        self.in_view_change = False
        self.blames: Dict[View, Dict[NodeId, ProtocolMessage]] = {}
        self.blamed_views: Set[View] = set()
        self.quit_views: Set[View] = set()
        self.equivocation_handled: Set[View] = set()

    # ---------------------------------------------------------------- timers
    def timer_delay(self, name: str) -> float:
        """The duration of timer ``name``: its ``TIMERS`` multiple of Δ."""
        return self.TIMERS[name] * self.config.delta

    def _rearm_blame(self, height: int) -> None:
        """Progress to ``height``: re-arm ``T_blame``; at the target height a
        quiet leader is not a faulty one, so cancel it."""
        if height >= self.config.target_height:
            self.blame_timer.cancel()
        else:
            self.blame_timer.start(self.timer_delay("blame"))

    # ------------------------------------------------------ proposals, commit
    def _record_proposal(self, message: ProtocolMessage, slot: int, digest: str) -> None:
        """Track the leader's proposals per (view, slot); two distinct ones equivocate.

        The slot keeps the first digest with its latest message: a
        re-delivery refreshes it, and any other digest is reported against it.
        """
        key = (message.view, slot)
        seen = self.proposals_seen.get(key)
        if seen is None or seen[0] == digest:
            self.proposals_seen[key] = (digest, message)
        else:
            self._handle_equivocation(message.view, seen[1], message)

    def _commit_on_timer(self, block: Block) -> None:
        """Commit rule: ``T_commit`` elapsed without an equivocation; commit ``block``'s chain."""
        if self.crashed:
            return
        self.commit_chain(block)

    # ----------------------------------------------------------------- blame
    def _on_blame_timer(self) -> None:
        """T_blame expired: the leader made no progress — blame it."""
        view = self.v_cur
        if not self.crashed and self._blame(view):
            self._check_blame_quorum(view)

    def _blame(self, view: View, proof: Optional[EquivocationProof] = None) -> bool:
        """Sign and flood this node's one ``BLAME`` for ``view``; whether it was sent."""
        if view != self.v_cur or view in self.blamed_views:
            return False
        blame = self.sign_message(MessageType.BLAME, proof, view=view)
        self.blamed_views.add(view)
        self.blames.setdefault(view, {})[self.pid] = blame
        self.stats.blames_sent += 1
        self.broadcast(blame)
        return True

    def _on_blame(self, message: ProtocolMessage) -> None:
        """Record another node's blame for the current view."""
        self._on_blame_evidence(message)
        self.blames.setdefault(message.view, {})[message.sender] = message
        self._check_blame_quorum(message.view)

    def _on_blame_evidence(self, message: ProtocolMessage) -> None:
        """Hook: act on evidence a verified ``BLAME`` carries (default: it carries none)."""

    def _check_blame_quorum(self, view: View) -> None:
        """A quorum of blames for the current view: flood the blame certificate and quit."""
        blames = self.blames.get(view, {})
        quorum = self.certificate_quorum(_BLAME)
        if len(blames) < quorum:
            return
        if view != self.v_cur or view in self.quit_views:
            return
        blame_qc = make_qc(list(blames.values())[:quorum])
        self.broadcast(self.sign_message(MessageType.BLAME_QC, blame_qc, view=view))
        self._leave_view(view)

    def _on_blame_qc(self, message: ProtocolMessage) -> None:
        """A verified blame certificate from another node: quit the view."""
        self._leave_view(message.view)

    def _leave_view(self, view: View) -> None:
        """Stop the current view's steady state (once), then run :meth:`_quit_view`."""
        if view != self.v_cur or view in self.quit_views:
            return
        self.quit_views.add(view)
        self.in_view_change = True
        self.commit_timers.cancel_all()
        self.blame_timer.cancel()
        self._quit_view(view)

    def _quit_view(self, view: View) -> None:  # pragma: no cover - abstract
        """Hook: the protocol's own path from a quit view to the next one."""
        raise NotImplementedError

    # ---------------------------------------------------------------- status
    def describe(self) -> Dict[str, Any]:
        """A snapshot of the replica's protocol state (used in tests and examples)."""
        return {
            "pid": self.pid,
            "view": self.v_cur,
            "locked_height": self.b_lock.height,
            "committed_height": self.committed_height,
            "in_view_change": self.in_view_change,
            "blocks_committed": self.stats.blocks_committed,
            "view_changes": self.stats.view_changes_completed,
        }
