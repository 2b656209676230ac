"""OptSync baseline (Shrestha et al., CCS 2020), simplified.

OptSync adds optimistic responsiveness to synchronous SMR: when more than
3n/4 nodes vote, a block commits after 2δ (actual network delay) instead
of waiting for the synchronous bound.  Its synchronous path is Sync
HotStuff's, on the same ⌊n/2⌋ + 1 vote certificate.  A node verifies each
distinct vote for a block up to ⌊3n/4⌋ + 1, which arms the 2δ commit once,
and refuses later votes unverified.  The paper counts 3n/4 + 1 verified
votes per block at every node, which is why it finds Sync HotStuff more
energy-efficient than OptSync and EESMR better than both (Section 6, "Let
δ be the actual network speed...").  Here every node verifies the majority
certificate and the votes that reach it; under partial vote forwarding only
the leader holds ⌊3n/4⌋ + 1, so the margin over Sync HotStuff is small.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Set

from repro.core.baselines.sync_hotstuff import _SHS_VOTE, SyncHotStuffReplica
from repro.core.messages import ProtocolMessage


class OptSyncReplica(SyncHotStuffReplica):
    """An OptSync node: Sync HotStuff plus a 2δ commit on ⌊3n/4⌋ + 1 votes."""

    #: Sync HotStuff's waits plus the responsive commit: 2δ, taken as Δ (δ ≪ Δ).
    TIMERS = {**SyncHotStuffReplica.TIMERS, "responsive-commit": 1}

    counts_certified_votes = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Blocks whose ⌊3n/4⌋ + 1-th distinct vote has been counted.
        self.responsive: Set[str] = set()

    @cached_property
    def responsive_quorum(self) -> int:
        """Votes that arm the responsive commit: ⌊3n/4⌋ + 1."""
        return (3 * self.config.n) // 4 + 1

    def _vote_still_counted(self, message: ProtocolMessage) -> bool:
        """Admission guard: a vote is verified until its block has the responsive count."""
        return message.data not in self.responsive

    def _on_vote(self, message: ProtocolMessage) -> None:
        """Count a vote: a majority certifies the block, ⌊3n/4⌋ + 1 arm its 2δ commit."""
        block_hash = message.data
        per_block = self.votes.setdefault(block_hash, {})
        per_block[message.sender] = message
        count = len(per_block)
        if count >= self.certificate_quorum(_SHS_VOTE) and block_hash not in self.certs:
            self._certify(block_hash, per_block)
        if count < self.responsive_quorum:
            return
        del self.votes[block_hash]
        self.responsive.add(block_hash)
        if block_hash in self.commit_timers:
            self.commit_timers.start(
                block_hash,
                self.timer_delay("responsive-commit"),
                self._commit_on_timer,
                self.blocks.get(block_hash),
            )
