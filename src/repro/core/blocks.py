"""Blocks, the hash-chained unit of the linearizable log.

A block carries a batch of client commands and the hash of its parent, as
in Section 2 of the paper ("Blocks").  The genesis block ``G`` has height 0
and every other block's height is its parent's height plus one.  Because
blocks are hash-chained, a vote (or commit) for a block implicitly endorses
all of its ancestors — the property EESMR's "voting in the head" and the
view-change certificate logic both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional

from repro.core.types import Batch, Command, NodeId, Round, View
from repro.crypto.hashing import structural_digest

#: Hash placeholder used as the genesis block's parent.
NO_PARENT = "genesis"


@dataclass(frozen=True)
class Block:
    """An immutable block of the replicated log."""

    parent_hash: str
    height: int
    view: View
    round: Round
    proposer: NodeId
    batch: Batch = field(default_factory=Batch)

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("height cannot be negative")

    @cached_property
    def block_hash(self) -> str:
        """Deterministic content hash (cached per instance)."""
        return structural_digest(
            {
                "parent": self.parent_hash,
                "height": self.height,
                "view": self.view,
                "round": self.round,
                "proposer": self.proposer,
                "commands": list(self.batch.command_ids),
            }
        )

    @cached_property
    def wire_size_bytes(self) -> int:
        """Bytes of the block on the wire: header + parent hash + payload."""
        header = 4 + 4 + 4 + 4  # height, view, round, proposer
        return header + 32 + self.batch.wire_size_bytes

    @property
    def is_genesis(self) -> bool:
        return self.parent_hash == NO_PARENT and self.height == 0

    def short_hash(self) -> str:
        """First 10 hex chars of the block hash (for logs and test messages)."""
        return self.block_hash[:10]



def make_genesis() -> Block:
    """The genesis block ``G`` shared by all nodes (height 0, view 0)."""
    return Block(parent_hash=NO_PARENT, height=0, view=0, round=0, proposer=-1)


GENESIS = make_genesis()


def make_block(
    parent: Block,
    proposer: NodeId,
    view: View,
    round_number: Round,
    commands: List[Command],
) -> Block:
    """Create a child block extending ``parent`` (the ``CreateProposal`` helper)."""
    return Block(
        parent_hash=parent.block_hash,
        height=parent.height + 1,
        view=view,
        round=round_number,
        proposer=proposer,
        batch=Batch(tuple(commands)),
    )


class BlockStore:
    """A node's local store of every block it has seen.

    The store provides the ancestry queries the protocol needs: does block
    ``b`` extend block ``a``, and do two blocks conflict (neither extends
    the other).  Chain synchronization — requesting missing parents from
    the sender — is modelled implicitly: since proposals are flooded to
    all nodes, every correct node stores every proposed block, and the
    protocol timers already include the paper's chain-synchronization
    allowance.
    """

    def __init__(self) -> None:
        self.genesis = GENESIS
        self._blocks: Dict[str, Block] = {self.genesis.block_hash: self.genesis}
        # Hashes known to have a complete ancestry down to genesis, so
        # repeated has_ancestry checks on a growing chain are amortized
        # O(1) instead of a fresh walk to genesis every time.
        self._rooted: set[str] = {self.genesis.block_hash}

    def add_if_absent(self, block: Block) -> bool:
        """Store a block unless present; returns whether it was new."""
        block_hash = block.block_hash
        if block_hash in self._blocks:
            return False
        self._blocks[block_hash] = block
        return True

    def get(self, block_hash: str) -> Optional[Block]:
        """Retrieve a block by hash, or ``None`` when unknown."""
        return self._blocks.get(block_hash)

    def has_ancestry(self, block: Block) -> bool:
        """Whether every ancestor of ``block`` down to genesis is known."""
        rooted = self._rooted
        walked = []
        current = block
        while True:
            if current.block_hash in rooted:
                break
            if current.is_genesis:
                break
            walked.append(current.block_hash)
            parent = self._blocks.get(current.parent_hash)
            if parent is None:
                return False
            current = parent
        rooted.update(walked)
        return True

    def iter_ancestors(self, block: Block) -> Iterator[Block]:
        """Yield ``block`` and then its ancestors up to (and including) genesis."""
        current: Optional[Block] = block
        while current is not None:
            yield current
            if current.is_genesis:
                return
            current = self._blocks.get(current.parent_hash)

    def extends(self, descendant: Block, ancestor: Block) -> bool:
        """Whether ``descendant`` extends (or equals) ``ancestor``."""
        if descendant.height < ancestor.height:
            return False
        target = ancestor.block_hash
        for candidate in self.iter_ancestors(descendant):
            if candidate.block_hash == target:
                return True
            if candidate.height < ancestor.height:
                return False
        return False

    def conflicts(self, block_a: Block, block_b: Block) -> bool:
        """Two blocks conflict when neither extends the other."""
        return not self.extends(block_a, block_b) and not self.extends(block_b, block_a)
