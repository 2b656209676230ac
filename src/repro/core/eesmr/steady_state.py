"""EESMR steady-state sub-protocol (Algorithm 2, lines 203-215 and 278-280).

In the steady state the leader streams proposals — one block per round —
and every node:

* treats the flooded proposal it receives as its "vote in the head",
  updating its locked block ``B_lck`` without producing any signature;
* (re)broadcasts the proposal, which in this reproduction is realised by
  the network-layer flooding;
* starts the 4Δ commit timer ``T_commit(B)`` and commits ``B`` (and its
  ancestors) when the timer expires without an equivocation having been
  observed for that view.

A proposal that arrives ahead of its round is buffered.  The delivery that
fills the gap accepts the whole run it makes current, in one loop, at one
instant: the run's ``T_commit`` timers would share a deadline and fire back
to back, so they are one event, keyed (and, traced, labelled) by the
blocks' hashes joined with ``,``.  Each block of the run extends the one
before it, so the event commits the last one's chain: the run, in order.

The only signature in the whole steady state is the leader's signature on
the proposal, which is what gives EESMR its O(1) signing / O(n)
verification per block (Table 3) and its energy advantage over
certificate-based protocols.
"""

from __future__ import annotations

from repro.core.blocks import Block, make_block
from repro.core.messages import EquivocationProof, MessageType, ProtocolMessage
from repro.core.types import FIRST_STEADY_ROUND, Round, View


class SteadyStateMixin:
    """Steady-state behaviour of an EESMR replica.

    Mixed into :class:`repro.core.eesmr.replica.EesmrReplica`, which owns
    the state attributes referenced here.
    """

    # ------------------------------------------------------------- proposing
    def _schedule_propose(self, delay: float) -> None:
        """Schedule the leader's next proposal."""
        self.after(delay, self._propose_next, label="eesmr:propose")

    def _propose_next(self) -> None:
        """Leader: create and broadcast the proposal for the next round."""
        if self.crashed or self.in_view_change or not self.is_leader(self.v_cur):
            return
        if (
            self.leader_chain_tip.height >= self.config.target_height
            and not self.force_steady_proposal
        ):
            return
        self.force_steady_proposal = False
        round_number = self.next_propose_round
        block = self._build_proposal_block(round_number)
        message = self.sign_message(
            MessageType.PROPOSE, block, view=self.v_cur, round_number=round_number
        )
        self.store_block(block)
        self.broadcast(message)
        self.stats.proposals_made += 1
        self.leader_chain_tip = block
        self.next_propose_round += 1
        if self.leader_chain_tip.height < self.config.target_height:
            self._schedule_propose(self.config.block_interval)

    def _build_proposal_block(self, round_number: Round) -> Block:
        """The ``CreateProposal`` helper: extend the leader's chain tip with pooled commands."""
        return make_block(
            parent=self.leader_chain_tip,
            proposer=self.pid,
            view=self.v_cur,
            round_number=round_number,
            commands=self.next_batch(self.leader_chain_tip),
        )

    # -------------------------------------------------------------- handling
    def _on_propose(self, message: ProtocolMessage) -> None:
        """Handle a PROPOSE message (steady-state rounds >= 3, or view-change round 2)."""
        if message.round == 2:
            self._on_round2_proposal(message)
            return
        if message.round < FIRST_STEADY_ROUND:
            return
        self._record_proposal(message, message.round, message.data_digest)
        if self.in_view_change or self.r_cur < FIRST_STEADY_ROUND:
            # We are still completing the view change; keep the proposal so
            # it can be processed the moment we enter the steady state.
            self.buffered_proposals.setdefault(message.view, {})[message.round] = message
            return
        if message.round > self.r_cur:
            self.buffered_proposals.setdefault(message.view, {})[message.round] = message
            return
        if message.round == self.r_cur:
            self._process_steady_proposal(message)

    def _process_steady_proposal(self, message: ProtocolMessage) -> None:
        """Vote in the head for ``message`` and each buffered proposal it makes current.

        The accepted run shares one 4Δ commit timer; ``T_blame`` is re-armed once.
        """
        per_view = self.buffered_proposals.get(self.v_cur, {})
        accepted: list[str] = []  # the run's block hashes, in order
        while True:
            block = message.data
            if not isinstance(block, Block):
                break
            self.store_block(block)
            # Without stored parents (chain synchronization would fetch them)
            # the extension cannot be validated; a block forking away from
            # our lock is refused, and the blame timer will depose its leader.
            if not self.blocks.has_ancestry(block) or not self.blocks.extends(block, self.b_lock):
                break
            self.b_lock = block
            self.stats.proposals_received += 1
            self.r_cur = message.round + 1
            accepted.append(block.block_hash)
            if self.r_cur not in per_view:
                break
            message = per_view.pop(self.r_cur)
        if not accepted:
            return
        # Each accepted block extends the one before it, so committing the
        # last one's chain, the new lock's, commits the run in height order.
        key = ",".join(accepted)
        delay = self.timer_delay("commit")
        self.commit_timers.start(key, delay, self._commit_on_timer, self.b_lock)
        self._rearm_blame(self.b_lock.height)

    def _drain_buffered_proposals(self) -> None:
        """Process the buffered proposal that has become current, if any."""
        message = self.buffered_proposals.get(self.v_cur, {}).pop(self.r_cur, None)
        if message is not None:
            self._process_steady_proposal(message)

    # --------------------------------------------------------- equivocation
    def _handle_equivocation(
        self, view: View, first: ProtocolMessage, second: ProtocolMessage
    ) -> None:
        """Two conflicting proposals for the same round: blame with proof."""
        if view in self.equivocation_handled:
            return
        self.equivocation_handled.add(view)
        self.stats.equivocations_detected += 1
        self.commit_timers.cancel_all()
        # Equivocation-scenario speedup (Section 3.5): the two conflicting
        # signed proposals are transferable evidence, so every correct node
        # that sees them quits the view directly — no f+1 blame certificate
        # is built or verified.
        self._blame(view, EquivocationProof(first, second))
        self._leave_view(view)
