"""Committed logs and cross-node safety checking.

Each replica owns a :class:`CommittedLog` — its linearizable log of
committed blocks indexed by height.  The :class:`SafetyChecker` compares
the logs of the *correct* nodes after a run and asserts the SMR safety
property of Definition 2.1: for any log position, any two correct nodes
that have committed a block at that position committed the same block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.core.blocks import Block, BlockStore


class SafetyViolation(AssertionError):
    """Raised when two correct nodes committed conflicting blocks."""


class CommittedLog:
    """A single node's committed chain, indexed by height."""

    def __init__(self, node_id: int, store: BlockStore) -> None:
        self.node_id = node_id
        self.store = store
        self._by_height: Dict[int, Block] = {}
        # The committed hashes and the running maximum height: both
        # maintained by commit(), the only writer, so membership and
        # ``highest_height`` never scan the log.
        self._by_hash: Set[str] = set()
        self._highest = 0

    def __len__(self) -> int:
        return len(self._by_height)

    def __contains__(self, block_hash: str) -> bool:
        return block_hash in self._by_hash

    @property
    def highest_height(self) -> int:
        """Height of the highest committed block (0 when only genesis)."""
        return self._highest

    def block_at(self, height: int) -> Optional[Block]:
        """The committed block at ``height`` or ``None``."""
        return self._by_height.get(height)

    def commit(self, block: Block) -> List[Block]:
        """Commit ``block`` and all its not-yet-committed ancestors.

        Returns the newly committed blocks in chain order.  Committing a
        block that conflicts with an existing commit at the same height
        raises :class:`SafetyViolation` — a correct replica must never do
        that, so surfacing it loudly turns protocol bugs into test failures.

        The walk stops at the first ancestor that is already committed at
        its height: everything below it was conflict-checked when that
        ancestor was committed, so re-walking to genesis on every commit
        (O(height) per commit, O(height²) per run) is unnecessary; for a
        block over the committed tip it is one parent step.  A conflicting
        ancestor *above* the stop point still raises, exactly as the full
        walk did, and an ancestor missing from the store raises ``KeyError``.
        """
        by_height = self._by_height
        blocks = self.store._blocks
        pending: List[Block] = []
        current = block
        while not current.is_genesis:
            existing = by_height.get(current.height)
            if existing is not None:
                if existing.block_hash != current.block_hash:
                    raise SafetyViolation(
                        f"node {self.node_id} tried to commit {current.short_hash()} at "
                        f"height {current.height} over {existing.short_hash()}"
                    )
                break
            pending.append(current)
            current = blocks.get(current.parent_hash)
            if current is None:
                raise KeyError(f"chain of {block.short_hash()} has missing ancestors")
        newly_committed: List[Block] = []
        for ancestor in reversed(pending):
            self._by_height[ancestor.height] = ancestor
            self._by_hash.add(ancestor.block_hash)
            newly_committed.append(ancestor)
            if ancestor.height > self._highest:
                self._highest = ancestor.height
        return newly_committed

    def committed_blocks(self) -> List[Block]:
        """All committed blocks in height order."""
        return [self._by_height[h] for h in sorted(self._by_height)]

    def committed_command_ids(self) -> List[str]:
        """Command ids in commit (height) order — the linearizable log."""
        ids: List[str] = []
        for block in self.committed_blocks():
            ids.extend(block.batch.command_ids)
        return ids


@dataclass
class SafetyReport:
    """Result of comparing correct nodes' committed logs."""

    consistent: bool
    common_prefix_height: int
    max_height: int
    details: List[str] = field(default_factory=list)


class SafetyChecker:
    """Compares committed logs across nodes (Definition 2.1 safety)."""

    def __init__(self, logs: Dict[int, CommittedLog], faulty: Iterable[int]) -> None:
        self.logs = logs
        self.faulty = set(faulty)

    def correct_logs(self) -> Dict[int, CommittedLog]:
        """Logs of the correct nodes only."""
        return {nid: log for nid, log in self.logs.items() if nid not in self.faulty}

    def check(self) -> SafetyReport:
        """Verify agreement at every height where at least two correct nodes committed."""
        correct = self.correct_logs()
        details: List[str] = []
        consistent = True
        max_height = max((log.highest_height for log in correct.values()), default=0)
        common_prefix = 0
        for height in range(1, max_height + 1):
            at_height = {nid: log.block_at(height) for nid, log in correct.items()}
            blocks = {nid: block for nid, block in at_height.items() if block is not None}
            distinct = {b.block_hash for b in blocks.values()}
            if len(distinct) > 1:
                consistent = False
                details.append(
                    f"height {height}: conflicting commits "
                    + ", ".join(f"{nid}:{b.short_hash()}" for nid, b in blocks.items())
                )
            elif len(blocks) == len(correct) and len(distinct) == 1:
                common_prefix = height
        return SafetyReport(
            consistent=consistent,
            common_prefix_height=common_prefix,
            max_height=max_height,
            details=details,
        )
