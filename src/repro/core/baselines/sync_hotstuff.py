"""Sync HotStuff baseline (Abraham et al., S&P 2020), simplified.

This is the protocol the paper compares EESMR against (Fig. 2f, Fig. 3,
Table 3).  The implementation follows the synchronous steady state of
Sync HotStuff:

* the leader proposes block ``B_k`` carrying a certificate for ``B_{k-1}``;
* every node *votes* — an explicit signature — on every proposal and
  forwards both the proposal and its vote to everyone (the vote flood is
  what makes the per-block communication O(n^2 d) and the per-block
  verification O(n) per node);
* a node commits ``B_k`` 2Δ after voting if it saw no equivocation;
* a quorum of n/2 + 1 votes forms the certificate the leader attaches to
  the next proposal;
* a node locks the highest certified block a proposal or a status brought
  it and votes only for a proposal that extends it; a new leader extends
  the highest certified block it holds.

The view change (blame, quit view, status, new leader re-proposal) is the
standard synchronous one; it is cheaper than EESMR's because the steady
state already produced explicit certificates — exactly the trade-off the
paper quantifies (EESMR ≈2.8× cheaper steady state, ≈2× more expensive
view change).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict, Iterable, Optional

from repro.core.blocks import Block, make_block
from repro.core.messages import (
    CertifiedBlock,
    MessageType,
    ProtocolMessage,
    QuorumCertificate,
    make_qc,
)
from repro.core.replica_base import Admit, InView, LeaderReplica
from repro.core.types import NodeId, View

#: Read on every vote and every certified proposal: a module global, since a
#: member off the Enum class costs ~0.1 µs more on Python 3.11.
_SHS_VOTE = MessageType.SHS_VOTE


class SyncHotStuffReplica(LeaderReplica):
    """A (simplified) Sync HotStuff node."""

    #: Sync HotStuff forms explicit vote certificates, so catch-up
    #: responses must carry one over the served tip: a recovering node
    #: never adopts an uncertified suffix (see BaseReplica's sync
    #: handlers).
    tip_certificate = MessageType.SHS_VOTE

    #: How votes propagate.  ``"partial"`` mirrors the paper's measurement
    #: setup ("we made simplifying assumptions in favor of Sync HotStuff, by
    #: partially implementing vote forwarding"): a vote is multicast one hop
    #: to the node's neighbours and unicast to the leader, instead of being
    #: flooded network-wide.  ``"full"`` floods every vote (the textbook
    #: O(n^2 d) behaviour) and is used by the ablation benchmark.
    vote_forwarding = "partial"

    #: Whether a certified block's votes are still verified and counted
    #: (OptSync counts them up to its responsive quorum).
    counts_certified_votes = False

    _HANDLERS = {
        **LeaderReplica._HANDLERS,
        MessageType.SHS_PROPOSE: ("_on_propose", Admit(
            CertifiedBlock, from_leader=True, guard="_outside_view_change"
        )),
        MessageType.SHS_VOTE: ("_on_vote", Admit(str, guard="_vote_still_counted")),
        # Any view: a status is sent in the view being quit and read while
        # the next one starts, and its certificate is checked on its own.
        MessageType.SHS_STATUS: ("_on_status", Admit(CertifiedBlock, InView.ANY)),
    }

    #: Sync HotStuff's waits in Δ (``quit-view`` is the status wait).
    TIMERS = {"blame": 4, "commit": 2, "quit-view": 2, "new-view-blame": 8, "new-view-propose": 2}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.certs: Dict[str, QuorumCertificate] = {}
        self.votes: Dict[str, Dict[NodeId, ProtocolMessage]] = {}
        self.voted_blocks: set[str] = set()
        self.last_vote: Optional[ProtocolMessage] = None

    # ----------------------------------------------------------- parameters
    @cached_property
    def vote_quorum(self) -> int:
        """Votes needed for a certificate: n/2 + 1 in Sync HotStuff."""
        return self.config.n // 2 + 1

    def certificate_quorum(self, cert_type: MessageType) -> int:
        """A vote certificate (every certificate a proposal, a status or a
        catch-up tip carries) needs ``vote_quorum`` signers; a blame
        certificate the base rule's f + 1."""
        if cert_type is _SHS_VOTE:
            return self.vote_quorum
        return self.config.quorum

    def held_certificates(self) -> Iterable[QuorumCertificate]:
        """The vote certificates, by block."""
        return self.certs.values()

    # --------------------------------------------------------------- startup
    def start(self) -> None:
        self.blame_timer.start(self.timer_delay("blame"))
        if self.is_leader(self.v_cur):
            self.after(0.0, self._propose_next, label="shs:propose")

    # --------------------------------------------------------------- leader
    def _propose_next(self) -> None:
        if self.crashed or self.in_view_change or not self.is_leader(self.v_cur):
            return
        if self.leader_chain_tip.height >= self.config.target_height:
            return
        parent = self.leader_chain_tip
        block = make_block(parent, self.pid, self.v_cur, parent.height + 1, self.next_batch(parent))
        self.store_block(block)
        payload = CertifiedBlock(block, self.certs.get(parent.block_hash))
        message = self.sign_message(
            MessageType.SHS_PROPOSE, payload, view=self.v_cur, round_number=block.height
        )
        self.broadcast(message)
        self.stats.proposals_made += 1
        self.leader_chain_tip = block

    # ------------------------------------------------------------- proposals
    def _outside_view_change(self, message: ProtocolMessage) -> bool:
        """Admission guard: a proposal is taken only outside a view change."""
        return not self.in_view_change

    def _on_propose(self, message: ProtocolMessage) -> None:
        payload = message.data
        block, cert = payload.block, payload.cert
        self._record_proposal(message, block.height, block.block_hash)
        if self.v_cur in self.equivocation_handled:
            return
        if (
            cert is not None
            and self.verify_quorum_certificate(cert, _SHS_VOTE)
            and cert.block is not None
        ):
            self._adopt_certificate(cert, cert.block)
        self.store_block(block)
        # Vote only for a block that extends the lock: the highest certified
        # block a proposal or status brought (``_adopt_certificate``).
        if not self.blocks.has_ancestry(block) or not self.blocks.extends(block, self.b_lock):
            return
        if block.block_hash in self.voted_blocks:
            return
        self.voted_blocks.add(block.block_hash)
        self.stats.proposals_received += 1
        vote = self.sign_message(
            MessageType.SHS_VOTE, block.block_hash, view=self.v_cur, round_number=block.height
        )
        self.stats.votes_sent += 1
        self.last_vote = vote
        self._send_vote(vote)
        self.commit_timers.start(
            block.block_hash, self.timer_delay("commit"), self._commit_on_timer, block
        )
        self._rearm_blame(block.height)

    def _send_vote(self, vote: ProtocolMessage) -> None:
        """Disseminate a vote according to the configured forwarding mode."""
        if self.vote_forwarding == "full":
            self.broadcast(vote)
            return
        # Partial forwarding: one-hop multicast to neighbours plus a direct
        # unicast to the leader so it can always assemble the certificate.
        self.network.multicast_neighbors(self.pid, vote)
        leader = self.leader_of(self.v_cur)
        if leader != self.pid:
            self.send(leader, vote)
        # The sender counts its own vote locally.
        self.deliver(self.pid, vote)

    # ----------------------------------------------------------------- votes
    def _vote_still_counted(self, message: ProtocolMessage) -> bool:
        """Admission guard: a vote for a block already certified is not verified."""
        return message.data not in self.certs

    def _on_vote(self, message: ProtocolMessage) -> None:
        block_hash = message.data
        per_block = self.votes.setdefault(block_hash, {})
        per_block[message.sender] = message
        if len(per_block) < self.certificate_quorum(_SHS_VOTE):
            return
        # Every later vote for the block is refused on ``certs`` by the guard.
        del self.votes[block_hash]
        self._certify(block_hash, per_block)

    def _certify(self, block_hash: str, votes: Dict[NodeId, ProtocolMessage]) -> None:
        """``votes`` reached the quorum: keep their certificate; the leader proposes on it."""
        block = self.blocks.get(block_hash)
        quorum = self.certificate_quorum(_SHS_VOTE)
        self.certs[block_hash] = make_qc(list(votes.values())[:quorum], block=block)
        self.stats.certificates_formed += 1
        if self.is_leader(self.v_cur) and block_hash == self.leader_chain_tip.block_hash:
            self.after(self.config.block_interval, self._propose_next, label="shs:propose")

    # ----------------------------------------------------------- view change
    # The blame phase is LeaderReplica's.  Its T_blame expiry needs no
    # ``in_view_change`` guard here: ``_leave_view`` cancels the timer as it
    # sets the flag, only ``_start_new_view`` re-arms it, after clearing the
    # flag, and admission refuses a proposal (``_outside_view_change``) while
    # the flag is set — so T_blame never fires in the middle of a view change.

    def _handle_equivocation(self, view: View, *_twins: ProtocolMessage) -> None:
        if view in self.equivocation_handled:
            return
        self.equivocation_handled.add(view)
        self.stats.equivocations_detected += 1
        self.commit_timers.cancel_all()
        if self._blame(view):
            self._check_blame_quorum(view)

    def _quit_view(self, view: View) -> None:
        """Report the highest certified block, then wait 2Δ for everyone else's.

        Votes reach only the leader and the voter's neighbours, so a block
        committed before the leader failed may be certified nowhere else: a
        last vote above the reported block is flooded, for every node to
        form that certificate in the wait.
        """
        block, cert = self._highest_certified()
        status = self.sign_message(MessageType.SHS_STATUS, CertifiedBlock(block, cert), view=view)
        self.broadcast(status)
        vote = self.last_vote
        if vote is not None and vote.round > block.height:
            self.broadcast(vote)
        self.after(
            self.timer_delay("quit-view"), self._start_new_view, label="shs:new-view", args=(view,)
        )

    def _on_status(self, message: ProtocolMessage) -> None:
        payload = message.data
        cert = payload.cert
        self.store_block(payload.block)
        if (
            cert is not None
            and cert.block is not None
            and self.verify_quorum_certificate(cert, _SHS_VOTE)
        ):
            self._adopt_certificate(cert, cert.block)

    def _adopt_certificate(self, cert: QuorumCertificate, block: Block) -> None:
        """Keep a verified certificate a proposal or status carried for
        ``block``, and lock ``block`` if it is higher, with ancestry.

        Its vote set is done with unless ``counts_certified_votes``.
        Commits prune nothing, since under loss the leader may still need
        late votes for the certificate that releases its next proposal.
        """
        self.store_block(block)
        self.certs.setdefault(block.block_hash, cert)
        if not self.counts_certified_votes:
            self.votes.pop(block.block_hash, None)
        if block.height > self.b_lock.height and self.blocks.has_ancestry(block):
            self.b_lock = block

    def _sync_tip_certificate(self, tip: Block) -> Optional[QuorumCertificate]:
        """Serve the vote certificate for a caught-up tip, if we hold one."""
        return self.certs.get(tip.block_hash)

    def _highest_certified(self) -> tuple[Block, Optional[QuorumCertificate]]:
        """The highest block for which this node holds a certificate."""
        best: Optional[Block] = None
        best_cert: Optional[QuorumCertificate] = None
        for block_hash, cert in self.certs.items():
            block = self.blocks.get(block_hash)
            if block is None or not self.blocks.has_ancestry(block):
                continue
            if best is None or block.height > best.height:
                best = block
                best_cert = cert
        if best is None:
            return self.blocks.genesis, None
        return best, best_cert

    def _start_new_view(self, old_view: View) -> None:
        if self.v_cur != old_view:
            return
        self.v_cur = old_view + 1
        self.in_view_change = False
        self.stats.view_changes_completed += 1
        if self.hooks is not None:
            self.hooks.view_change(self.pid, self.v_cur, self.sim.now)
        self.blame_timer.start(self.timer_delay("new-view-blame"))
        if self.is_leader(self.v_cur):
            self.leader_chain_tip, _ = self._highest_certified()
            self.after(
                self.timer_delay("new-view-propose"),
                self._propose_next,
                label="shs:new-view-propose",
            )

    # ---------------------------------------------------------------- status
    def describe(self) -> Dict[str, Any]:
        return {**super().describe(), "certificates": len(self.certs)}
