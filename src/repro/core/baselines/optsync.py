"""OptSync baseline (Shrestha et al., CCS 2020), simplified.

OptSync adds optimistic responsiveness to synchronous SMR: when more than
3n/4 nodes vote, a block commits after 2δ (actual network delay) instead
of waiting for the synchronous bound.  For the energy analysis the salient
difference from Sync HotStuff is the larger quorum: every node must verify
3n/4 + 1 vote signatures per block instead of n/2 + 1, which is why the
paper finds Sync HotStuff already more energy-efficient than OptSync and
EESMR better than both (Section 6, "Let δ be the actual network speed...").

The implementation reuses the Sync HotStuff machinery and overrides the
certificate quorum and the (shorter) responsive commit delay.
"""

from __future__ import annotations

from repro.core.baselines.sync_hotstuff import SyncHotStuffReplica


class OptSyncReplica(SyncHotStuffReplica):
    """An OptSync node: responsive quorum of 3n/4 + 1 votes."""

    #: Fraction of the responsive commit delay relative to Δ (2δ with δ ≪ Δ).
    RESPONSIVE_COMMIT_FRACTION = 0.5

    @property
    def vote_quorum(self) -> int:
        """Votes needed for a responsive certificate: ⌊3n/4⌋ + 1."""
        return (3 * self.config.n) // 4 + 1

    def _commit_delay(self) -> float:
        """Responsive commits happen after ~2δ rather than 2Δ."""
        return 2 * self.config.delta * self.RESPONSIVE_COMMIT_FRACTION

    def _on_vote(self, message) -> None:  # type: ignore[override]
        """Collect votes; on a responsive quorum, shorten the commit timer."""
        super()._on_vote(message)
        block_hash = message.data
        if not isinstance(block_hash, str):
            return
        cert = self.certs.get(block_hash)
        if cert is None:
            return
        block = self.blocks.get(block_hash)
        if block is None:
            return
        if block_hash in self.commit_timers:
            # Responsive path: replace the synchronous wait with the 2δ wait.
            self.commit_timers.start(
                block_hash,
                self._commit_delay(),
                self._commit_on_timer,
                block,
            )
