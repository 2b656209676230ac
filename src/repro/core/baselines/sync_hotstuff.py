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

from typing import Any, Dict, Optional

from repro.core.blocks import Block, make_block
from repro.core.messages import (
    CertifiedBlock,
    MessageType,
    ProtocolMessage,
    QuorumCertificate,
    make_qc,
)
from repro.core.replica_base import LeaderReplica
from repro.core.types import NodeId, View


class SyncHotStuffReplica(LeaderReplica):
    """A (simplified) Sync HotStuff node."""

    #: Sync HotStuff forms explicit vote certificates, so catch-up
    #: responses must carry one over the served tip: a recovering node
    #: never adopts an uncertified suffix (see BaseReplica's sync
    #: handlers).
    sync_requires_certificate = True

    #: How votes propagate.  ``"partial"`` mirrors the paper's measurement
    #: setup ("we made simplifying assumptions in favor of Sync HotStuff, by
    #: partially implementing vote forwarding"): a vote is multicast one hop
    #: to the node's neighbours and unicast to the leader, instead of being
    #: flooded network-wide.  ``"full"`` floods every vote (the textbook
    #: O(n^2 d) behaviour) and is used by the ablation benchmark.
    vote_forwarding = "partial"

    _HANDLERS = {
        **LeaderReplica._HANDLERS,
        MessageType.SHS_PROPOSE: "_on_propose",
        MessageType.SHS_VOTE: "_on_vote",
        MessageType.SHS_STATUS: "_on_status",
    }

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.certs: Dict[str, QuorumCertificate] = {}
        self.votes: Dict[str, Dict[NodeId, ProtocolMessage]] = {}
        self.voted_blocks: set[str] = set()

    # ----------------------------------------------------------- parameters
    @property
    def vote_quorum(self) -> int:
        """Votes needed for a certificate: n/2 + 1 in Sync HotStuff."""
        return self.config.n // 2 + 1

    # --------------------------------------------------------------- startup
    def start(self) -> None:
        self.blame_timer.start(4 * self.config.delta)
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
    def _on_propose(self, message: ProtocolMessage) -> None:
        if message.view != self.v_cur or self.in_view_change:
            return
        if message.sender != self.leader_of(message.view):
            return
        if not self.verify_signed_message(message):
            return
        payload = message.data
        if not isinstance(payload, CertifiedBlock):
            return
        block, cert = payload.block, payload.cert
        self._record_proposal(message, block.height, block.block_hash)
        if self.v_cur in self.equivocation_handled:
            return
        cert_ok = False
        cert_block: Optional[Block] = None
        if cert is not None:
            cert_ok = self.verify_quorum_certificate(cert)
            cert_block = cert.block
            if cert_ok and cert_block is not None:
                self.store_block(cert_block)
                self.certs.setdefault(cert_block.block_hash, cert)
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
            block.block_hash,
            2 * self.config.delta,
            self._commit_on_timer,
            block,
        )
        if block.height >= self.config.target_height:
            self.blame_timer.cancel()
        else:
            self.blame_timer.start(4 * self.config.delta)

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
    def _on_vote(self, message: ProtocolMessage) -> None:
        if message.view != self.v_cur:
            return
        block_hash = message.data
        if not isinstance(block_hash, str):
            return
        if block_hash in self.certs:
            # A certificate already exists; no need to verify further votes.
            return
        if not self.verify_signed_message(message):
            return
        per_block = self.votes.setdefault(block_hash, {})
        per_block[message.sender] = message
        if len(per_block) < self.vote_quorum:
            return
        block = self.blocks.get(block_hash)
        cert = make_qc(list(per_block.values())[: self.vote_quorum], block=block)
        self.certs[block_hash] = cert
        self.stats.certificates_formed += 1
        if self.is_leader(self.v_cur) and block_hash == self.leader_chain_tip.block_hash:
            self.after(self.config.block_interval, self._propose_next, label="shs:propose")

    # ----------------------------------------------------------- view change
    # The blame phase is LeaderReplica's.  Its T_blame expiry needs no
    # ``in_view_change`` guard here: ``_leave_view`` cancels the timer as it
    # sets the flag, only ``_start_new_view`` re-arms it, after clearing the
    # flag, and ``_on_propose`` returns before its own re-arm while the flag
    # is set — so T_blame never fires in the middle of a view change.

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
            2 * self.config.delta, self._start_new_view, label="shs:new-view", args=(view,)
        )

    def _on_status(self, message: ProtocolMessage) -> None:
        if not self.verify_signed_message(message):
            return
        payload = message.data
        if not isinstance(payload, CertifiedBlock):
            return
        cert = payload.cert
        self.store_block(payload.block)
        if cert is not None and cert.block is not None:
            if self.verify_quorum_certificate(cert):
                self.store_block(cert.block)
                self.certs.setdefault(cert.block.block_hash, cert)

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
        self.blame_timer.start(8 * self.config.delta)
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
                2 * self.config.delta, self._propose_next, label="shs:new-view-propose"
            )

    # ---------------------------------------------------------------- status
    def describe(self) -> Dict[str, Any]:
        return {**super().describe(), "certificates": len(self.certs)}
