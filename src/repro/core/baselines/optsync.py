"""OptSync baseline (Shrestha et al., CCS 2020), simplified.

OptSync adds optimistic responsiveness to synchronous SMR: when more than
3n/4 nodes vote, a block commits after 2δ (actual network delay) instead
of waiting for the synchronous bound.  For the energy analysis the salient
difference from Sync HotStuff is the larger quorum: every node must verify
3n/4 + 1 vote signatures per block instead of n/2 + 1, which is why the
paper finds Sync HotStuff already more energy-efficient than OptSync and
EESMR better than both (Section 6, "Let δ be the actual network speed...").

The implementation reuses the Sync HotStuff machinery: it overrides the
certificate quorum and adds the (shorter) responsive commit wait to the
timer table.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.baselines.sync_hotstuff import SyncHotStuffReplica


class OptSyncReplica(SyncHotStuffReplica):
    """An OptSync node: responsive quorum of 3n/4 + 1 votes."""

    #: Sync HotStuff's waits plus the responsive commit: 2δ, taken as Δ (δ ≪ Δ).
    TIMERS = {**SyncHotStuffReplica.TIMERS, "responsive-commit": 1}

    @cached_property
    def vote_quorum(self) -> int:
        """Votes needed for a responsive certificate: ⌊3n/4⌋ + 1."""
        return (3 * self.config.n) // 4 + 1

    def _vote_uncertified(self, message) -> bool:
        """Sync HotStuff's guard; each vote it refuses still moves the 2δ deadline
        (the per-vote re-arm ROADMAP item 1 removes)."""
        if message.data not in self.certs:
            return True
        self._rearm_responsive_commit(message.data)
        return False

    def _on_vote(self, message) -> None:  # type: ignore[override]
        """Collect votes; on a responsive quorum, shorten the commit timer."""
        super()._on_vote(message)
        if message.data in self.certs:
            self._rearm_responsive_commit(message.data)

    def _rearm_responsive_commit(self, block_hash: str) -> None:
        """Responsive path: replace a certified block's synchronous wait with the 2δ wait."""
        block = self.blocks.get(block_hash)
        if block is not None and block_hash in self.commit_timers:
            self.commit_timers.start(
                block_hash, self.timer_delay("responsive-commit"), self._commit_on_timer, block
            )
