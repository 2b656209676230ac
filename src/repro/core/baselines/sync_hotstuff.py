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
  the next proposal.

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

    _HANDLERS = {
        **LeaderReplica._HANDLERS,
        MessageType.SHS_PROPOSE: ("_on_propose", Admit(
            CertifiedBlock, from_leader=True, guard="_outside_view_change"
        )),
        MessageType.SHS_VOTE: ("_on_vote", Admit(str, guard="_vote_uncertified")),
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
        cert_ok = False
        cert_block: Optional[Block] = None
        if cert is not None:
            cert_ok = self.verify_quorum_certificate(cert, _SHS_VOTE)
            cert_block = cert.block
            if cert_ok and cert_block is not None:
                self._adopt_certificate(cert, cert_block)
        self.store_block(block)
        if not self.blocks.has_ancestry(block):
            return
        extends_lock = self.blocks.extends(block, self.b_lock)
        justified_switch = (
            cert_ok and cert_block is not None and cert_block.height >= self.b_lock.height
        )
        if not extends_lock and not justified_switch:
            return
        if block.block_hash in self.voted_blocks:
            return
        self.voted_blocks.add(block.block_hash)
        self.b_lock = block
        self.stats.proposals_received += 1
        vote = self.sign_message(
            MessageType.SHS_VOTE, block.block_hash, view=self.v_cur, round_number=block.height
        )
        self.stats.votes_sent += 1
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
    def _vote_uncertified(self, message: ProtocolMessage) -> bool:
        """Admission guard: a vote for a block already certified is not verified."""
        return message.data not in self.certs

    def _on_vote(self, message: ProtocolMessage) -> None:
        block_hash = message.data
        per_block = self.votes.setdefault(block_hash, {})
        per_block[message.sender] = message
        quorum = self.certificate_quorum(_SHS_VOTE)
        if len(per_block) < quorum:
            return
        block = self.blocks.get(block_hash)
        cert = make_qc(list(per_block.values())[:quorum], block=block)
        self.certs[block_hash] = cert
        # Every later vote for the block returns on ``certs`` above.
        del self.votes[block_hash]
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
        """Report the highest certified block, then wait 2Δ for everyone else's."""
        block, cert = self._highest_certified()
        status = self.sign_message(MessageType.SHS_STATUS, CertifiedBlock(block, cert), view=view)
        self.broadcast(status)
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
        """Keep a verified certificate a proposal or status carried for ``block``.

        Its vote set is done with: ``_on_vote`` returns on ``certs`` before
        it reads ``votes``.  Commits prune nothing, since under loss the
        leader may still need late votes for the certificate that releases
        its next proposal.
        """
        self.store_block(block)
        self.certs.setdefault(block.block_hash, cert)
        self.votes.pop(block.block_hash, None)

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
            block, _ = self._highest_certified()
            # A new leader may hold a lock above its highest certificate —
            # with OptSync's 3n/4+1 quorum and partial vote forwarding,
            # non-leader nodes can end a view with no certificate at all.
            # Extending only the certified block would then fork away from
            # every correct node's lock and no proposal would ever gather
            # votes again (a livelock).  The leader's own lock is a block
            # every correct node also locked (it was flooded), so extending
            # it is safe and restores progress.
            if self.blocks.has_ancestry(self.b_lock) and self.b_lock.height > block.height:
                block = self.b_lock
            self.leader_chain_tip = block
            self.after(
                self.timer_delay("new-view-propose"),
                self._propose_next,
                label="shs:new-view-propose",
            )

    # ---------------------------------------------------------------- status
    def describe(self) -> Dict[str, Any]:
        return {**super().describe(), "certificates": len(self.certs)}
