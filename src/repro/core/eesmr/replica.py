"""The EESMR replica: protocol-specific state, dispatch table and lifecycle.

This class puts the steady-state and view-change mixins on top of
:class:`repro.core.replica_base.LeaderReplica`, which owns the shared
state, the message dispatch and the blame phase.  One instance of it is one
node p_i of the system; it reacts to message deliveries from the simulated
network and to its own timers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.core.blocks import Block
from repro.core.eesmr.steady_state import SteadyStateMixin
from repro.core.eesmr.view_change import ViewChangeMixin
from repro.core.messages import (
    MessageType,
    NewViewProposal,
    ProtocolMessage,
    QuorumCertificate,
    Round2Proposal,
)
from repro.core.replica_base import Admit, InView, LeaderReplica
from repro.core.types import NodeId, Round, View


class EesmrReplica(SteadyStateMixin, ViewChangeMixin, LeaderReplica):
    """A correct EESMR node (Algorithm 2)."""

    #: Catch-up state transfer rides the shared rows: EESMR has no
    #: steady-state certificates (commits are quiet-period timeouts), so
    #: recovering nodes adopt on f+1 matching peer responses instead.
    _HANDLERS = {
        **LeaderReplica._HANDLERS,
        # A steady-state block, or round 2's vote certificate.
        MessageType.PROPOSE: ("_on_propose", Admit(
            (Block, Round2Proposal), InView.BUFFER_LATER, from_leader=True
        )),
        MessageType.COMMIT_UPDATE: ("_on_commit_update", Admit(Block)),
        MessageType.CERTIFY: ("_on_certify", Admit(str)),
        # Any view: it is flooded in the view quit and sent to the next leader
        # in the new one; f+1 Certify votes vouch for a block in any view.
        MessageType.COMMIT_QC: ("_on_commit_qc", Admit(
            QuorumCertificate,
            InView.ANY,
            certificate=MessageType.CERTIFY,
        )),
        MessageType.NEW_VIEW_PROPOSAL: ("_on_new_view_proposal", Admit(
            NewViewProposal, InView.BUFFER_LATER, from_leader=True, guard="_in_round_one"
        )),
        MessageType.VOTE: ("_on_vote", Admit(str, guard="_leads_view")),
    }

    #: The waits of Algorithm 2 in Δ; a full view change is bounded by 21Δ.
    TIMERS = {
        "blame": 4, "commit": 4, "quit-view": 1, "finish-quit": 5, "start-new-view": 1,
        "new-view-blame": 8, "new-view-proposal": 4, "round-2-blame": 6,
    }

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)

        # Steady-state bookkeeping.
        self.next_propose_round: Round = 3
        self.force_steady_proposal = False
        self.buffered_proposals: Dict[View, Dict[Round, ProtocolMessage]] = {}

        # View-change bookkeeping.
        self.certify_votes: Dict[View, Dict[NodeId, ProtocolMessage]] = {}
        self.own_commit_qc: Dict[View, QuorumCertificate] = {}
        self.best_commit_qc: Optional[QuorumCertificate] = None
        self.collected_commit_qcs: List[QuorumCertificate] = []
        self.nv_votes: Dict[View, Dict[NodeId, ProtocolMessage]] = {}
        self.nv_proposal_digest: Dict[View, str] = {}
        #: What this node's round-1 vote of a view signed: the only digest a
        #: round-2 certificate of that view may carry to it.
        self.nv_voted_digest: Dict[View, str] = {}
        self.round2_sent: set[View] = set()
        self._future_messages: List[ProtocolMessage] = []

    # --------------------------------------------------------------- startup
    def start(self) -> None:
        """Arm the progress timer and, if leading view 1, start proposing."""
        self.blame_timer.start(self.timer_delay("blame"))
        if self.is_leader(self.v_cur):
            self._schedule_propose(0.0)

    # ------------------------------------------------------- future messages
    def _buffer_future(self, message: ProtocolMessage) -> None:
        """Hold a message addressed to a later view until we get there."""
        self._future_messages.append(message)

    def _replay_buffered_future(self) -> None:
        """Re-deliver buffered future-view messages that are now current."""
        ready = [m for m in self._future_messages if m.view <= self.v_cur]
        self._future_messages = [m for m in self._future_messages if m.view > self.v_cur]
        for message in ready:
            self.on_message(message.sender, message)

    def held_certificates(self) -> Iterable[QuorumCertificate]:
        """The commit certificates: its own per view, those it collected, its best."""
        held = [*self.own_commit_qc.values(), *self.collected_commit_qcs]
        if self.best_commit_qc is not None:
            held.append(self.best_commit_qc)
        return held

    # ---------------------------------------------------------------- status
    def describe(self) -> Dict[str, Any]:
        return {**super().describe(), "round": self.r_cur, "locked": self.b_lock.short_hash()}
