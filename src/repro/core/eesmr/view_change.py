"""EESMR view-change sub-protocol (Algorithm 2, lines 216-277).

The view change is where EESMR pays for its cheap steady state: the
implicit "votes in the head" are converted into explicit certificates.
The phases are:

1. *Blame*: a node blames the leader when its progress timer expires
   (crash) or when it observes two conflicting proposals (equivocation,
   blame carries the proof).  f+1 blames form a blame certificate.
2. *Quit view*: on a valid blame certificate every node cancels its commit
   timers, waits Δ so all correct nodes quit, then broadcasts its highest
   committed block ``B_com`` and collects f+1 ``Certify`` votes on it — the
   explicit certificate for what was committed implicitly.
3. *Commit-QC exchange*: nodes broadcast their commit certificates and
   adopt any higher one that does not conflict with their lock.
4. *New view*: nodes send their best commit certificate to the new leader;
   the leader proposes a block extending the highest certified block
   (round 1), collects f+1 votes, and presents the vote certificate
   (round 2), after which the steady state resumes at round 3.

The timer values (``EesmrReplica.TIMERS``: Δ, 5Δ, Δ, 4Δ, 8Δ, 6Δ) follow the
paper's analysis, which bounds a full view change by 21Δ.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.blocks import Block, make_block
from repro.core.messages import (
    EquivocationProof,
    MessageType,
    NewViewProposal,
    ProtocolMessage,
    QuorumCertificate,
    Round2Proposal,
    make_qc,
)
from repro.core.types import View


class ViewChangeMixin:
    """View-change behaviour of an EESMR replica."""

    # ----------------------------------------------------------------- blame
    # The blame phase itself (T_blame expiry, f+1 blames -> blame
    # certificate -> leave the view) is LeaderReplica's.  T_blame is also
    # armed during rounds 1 and 2 of a new view (with the longer 8Δ / 6Δ
    # budgets), so a new leader that stalls is blamed and yet another view
    # change begins — the liveness argument of Lemma B.3 depends on this.

    def _on_blame_evidence(self, message: ProtocolMessage) -> None:
        """A blame may carry an equivocation proof: a valid one is handled as our own."""
        proof = message.data
        if self._is_equivocation_proof(proof, message.view):
            self._handle_equivocation(message.view, proof.first, proof.second)

    def _is_equivocation_proof(self, proof, view: View) -> bool:
        """Validate an equivocation proof against ``view``, charging verification.

        The evidence must accuse the view of the blame that carries it: a
        genuine proof from an earlier view replayed in a later blame says
        nothing about the later view's leader.
        """
        if not isinstance(proof, EquivocationProof):
            return False
        first, second = proof.first, proof.second
        if first.msg_type != MessageType.PROPOSE or second.msg_type != MessageType.PROPOSE:
            return False
        if not (first.view == second.view == view) or first.round != second.round:
            return False
        if first.data_digest == second.data_digest:
            return False
        leader = self.leader_of(first.view)
        if first.sender != leader or second.sender != leader:
            return False
        return self.verify_signed_message(first) and self.verify_signed_message(second)

    # ------------------------------------------------------------- quit view
    def _quit_view(self, view: View) -> None:
        """Wait Δ so every correct node has quit the view too (lines 231-234)."""
        delay = self.timer_delay("quit-view")
        self.after(delay, self._send_commit_update, label="eesmr:quit-view", args=(view,))

    def _send_commit_update(self, view: View) -> None:
        """Broadcast B_com and start collecting explicit certificates (lines 235-241)."""
        if self.v_cur != view:
            return
        commit_update = self.sign_message(MessageType.COMMIT_UPDATE, self.b_com, view=view)
        self.broadcast(commit_update)
        self.after(
            self.timer_delay("finish-quit"),
            self._finish_quit_view,
            label="eesmr:finish-quit",
            args=(view,),
        )

    def _on_commit_update(self, message: ProtocolMessage) -> None:
        """Vote (Certify) for another node's B_com when it does not conflict with our lock."""
        block = message.data
        self.store_block(block)
        if not self.blocks.has_ancestry(block):
            return
        if self.blocks.conflicts(block, self.b_lock):
            return
        certify = self.sign_message(MessageType.CERTIFY, block.block_hash, view=message.view)
        self.stats.votes_sent += 1
        self.send(message.sender, certify)

    def _on_certify(self, message: ProtocolMessage) -> None:
        """Collect a quorum of Certify votes on our own B_com into a commit certificate."""
        if message.data != self.b_com.block_hash:
            return
        votes = self.certify_votes.setdefault(message.view, {})
        votes[message.sender] = message
        quorum = self.certificate_quorum(MessageType.CERTIFY)
        if len(votes) < quorum:
            return
        if message.view in self.own_commit_qc:
            return
        qc = make_qc(list(votes.values())[:quorum], block=self.b_com)
        self.own_commit_qc[message.view] = qc
        self.stats.certificates_formed += 1
        self._consider_commit_qc(qc)

    def _consider_commit_qc(self, qc: QuorumCertificate) -> None:
        """Adopt a commit certificate when it is higher and does not conflict with our lock."""
        block = qc.block
        if block is None:
            return
        self.store_block(block)
        if not self.blocks.has_ancestry(block):
            return
        if self.blocks.conflicts(block, self.b_lock):
            return
        current = self.best_commit_qc
        if current is None or current.block is None or block.height > current.block.height:
            self.best_commit_qc = qc

    def _finish_quit_view(self, view: View) -> None:
        """5Δ after quitting: broadcast the best commit certificate, wait Δ, start the new view."""
        if self.v_cur != view:
            return
        if self.best_commit_qc is None:
            self.best_commit_qc = self.own_commit_qc.get(view)
        if self.best_commit_qc is not None:
            message = self.sign_message(MessageType.COMMIT_QC, self.best_commit_qc, view=view)
            self.broadcast(message)
        self.after(
            self.timer_delay("start-new-view"),
            self._start_new_view,
            label="eesmr:start-new-view",
            args=(view,),
        )

    def _on_commit_qc(self, message: ProtocolMessage) -> None:
        """A verified commit certificate from another node (broadcast or sent to the new leader)."""
        qc = message.data
        self.collected_commit_qcs.append(qc)
        self._consider_commit_qc(qc)

    # -------------------------------------------------------------- new view
    def _start_new_view(self, old_view: View) -> None:
        """Enter view old_view + 1 (procedure NewView, lines 251-266)."""
        if self.v_cur != old_view:
            return
        self.v_cur = old_view + 1
        self.r_cur = 1
        self.stats.view_changes_completed += 1
        if self.hooks is not None:
            self.hooks.view_change(self.pid, self.v_cur, self.sim.now)
        new_leader = self.leader_of(self.v_cur)
        if self.best_commit_qc is not None:
            status = self.sign_message(MessageType.COMMIT_QC, self.best_commit_qc, view=self.v_cur)
            self.send(new_leader, status)
        self.blame_timer.start(self.timer_delay("new-view-blame"))
        if new_leader == self.pid:
            self.after(
                self.timer_delay("new-view-proposal"),
                self._propose_new_view,
                label="eesmr:new-view-proposal",
            )
        self._replay_buffered_future()

    def _highest_certified(self) -> tuple[Optional[Block], List[QuorumCertificate]]:
        """The highest certified block this node knows of, plus the status set."""
        candidates: List[QuorumCertificate] = list(self.collected_commit_qcs)
        for qc in self.own_commit_qc.values():
            candidates.append(qc)
        if self.best_commit_qc is not None:
            candidates.append(self.best_commit_qc)
        best_block: Optional[Block] = None
        for qc in candidates:
            if qc.block is None or not self.blocks.has_ancestry(qc.block):
                continue
            if best_block is None or qc.block.height > best_block.height:
                best_block = qc.block
        status = [qc for qc in candidates if qc.block is not None][: self.config.quorum]
        return best_block, status

    def _propose_new_view(self) -> None:
        """New leader: propose the round-1 block extending the highest certified
        block, in the view current when the wait ends (late-bound on purpose)."""
        view = self.v_cur
        if self.crashed or not self.is_leader(view):
            return
        base, status = self._highest_certified()
        if base is None:
            base = self.b_com
        new_block = make_block(
            parent=base,
            proposer=self.pid,
            view=view,
            round_number=1,
            commands=[],
        )
        self.store_block(new_block)
        message = self.sign_message(
            MessageType.NEW_VIEW_PROPOSAL,
            NewViewProposal(new_block, tuple(status)),
            view=view,
            round_number=1,
        )
        self.nv_proposal_digest[view] = message.data_digest
        self.leader_chain_tip = new_block
        self.stats.proposals_made += 1
        self.broadcast(message)

    def _in_round_one(self, message: ProtocolMessage) -> bool:
        """Admission guard: a new-view proposal is taken in round 1 only."""
        return self.r_cur == 1

    def _on_new_view_proposal(self, message: ProtocolMessage) -> None:
        """Round 1 of the new view: vote for the leader's proposal when it is safe."""
        payload = message.data
        block = payload.block
        highest: Optional[Block] = None
        for qc in payload.status:
            if qc.block is None:
                continue
            if not self.verify_quorum_certificate(qc, MessageType.CERTIFY):
                continue
            self.store_block(qc.block)
            if highest is None or qc.block.height > highest.height:
                highest = qc.block
        if highest is None:
            highest = self.blocks.genesis
        self.store_block(block)
        if not self.blocks.has_ancestry(block):
            return
        if not self.blocks.extends(block, highest):
            return
        # LockCompare: the proposal belongs to a later view, so adopt it.
        self.b_lock = block
        vote = self.sign_message(
            MessageType.VOTE, message.data_digest, view=message.view, round_number=1
        )
        self.nv_voted_digest[message.view] = vote.data_digest
        self.stats.votes_sent += 1
        self.broadcast(vote)
        self.blame_timer.start(self.timer_delay("round-2-blame"))
        self.r_cur = 2

    def _leads_view(self, message: ProtocolMessage) -> bool:
        """Admission guard: round-1 votes are collected by the view's leader only."""
        return self.is_leader(message.view)

    def _on_vote(self, message: ProtocolMessage) -> None:
        """New leader: collect a quorum of round-1 votes and issue the round-2 certificate."""
        expected = self.nv_proposal_digest.get(message.view)
        if expected is None or message.data != expected:
            return
        votes = self.nv_votes.setdefault(message.view, {})
        votes[message.sender] = message
        quorum = self.certificate_quorum(MessageType.VOTE)
        if len(votes) < quorum:
            return
        if message.view in self.round2_sent:
            return
        self.round2_sent.add(message.view)
        vote_qc = make_qc(list(votes.values())[:quorum])
        payload = Round2Proposal(vote_qc, self.leader_chain_tip.block_hash)
        round2 = self.sign_message(MessageType.PROPOSE, payload, view=message.view, round_number=2)
        self.broadcast(round2)

    def _on_round2_proposal(self, message: ProtocolMessage) -> None:
        """Round 2 of the new view: a valid vote certificate returns us to the steady state.

        The certificate must be this view's round-1 certificate: of this
        view, and, once this node has voted in round 1, over what it voted
        for.  A certificate from an earlier view, or over another proposal,
        says nothing about this view's round 1.
        """
        if self.r_cur not in (1, 2):
            return
        payload = message.data
        if not isinstance(payload, Round2Proposal):
            return
        qc = payload.qc
        if qc.view != message.view:
            return
        voted = self.nv_voted_digest.get(message.view)
        if voted is not None and qc.digest != voted:
            return
        if not self.verify_quorum_certificate(qc, MessageType.VOTE):
            return
        self._enter_steady_state(message.view)

    def _enter_steady_state(self, view: View) -> None:
        """Transition to rounds >= 3 of the (new) view."""
        if self.v_cur != view:
            return
        self.r_cur = 3
        self.in_view_change = False
        self._rearm_blame(self.b_lock.height)
        if self.is_leader(view):
            self.next_propose_round = 3
            # The round-1 block only commits as an ancestor of a steady-state
            # block, so a new leader always anchors at least one steady
            # proposal even when the workload target was already reached.
            self.force_steady_proposal = True
            self._schedule_propose(self.config.block_interval)
        self._drain_buffered_proposals()
