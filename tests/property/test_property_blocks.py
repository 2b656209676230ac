"""Property-based tests for blocks, chains and the block store."""

from typing import Dict, Iterator, List, Optional

from hypothesis import given, settings, strategies as st

from repro.core.blocks import GENESIS, NO_PARENT, Block, BlockStore, make_block
from repro.core.ledger import CommittedLog, SafetyViolation
from repro.core.types import Batch, Command


@st.composite
def chains(draw, max_length=8):
    """A block store containing a random tree of blocks (chain with forks)."""
    store = BlockStore()
    blocks = [store.genesis]
    length = draw(st.integers(min_value=1, max_value=max_length))
    for i in range(length):
        parent = blocks[draw(st.integers(min_value=0, max_value=len(blocks) - 1))]
        payload = draw(st.integers(min_value=0, max_value=64))
        block = make_block(
            parent,
            proposer=draw(st.integers(min_value=0, max_value=5)),
            view=draw(st.integers(min_value=1, max_value=3)),
            round_number=i + 3,
            commands=[Command(f"c{i}", payload_size_bytes=payload)],
        )
        store.add_if_absent(block)
        blocks.append(block)
    return store, blocks


@given(chains())
@settings(max_examples=60, deadline=None)
def test_height_is_parent_height_plus_one(data):
    store, blocks = data
    for block in blocks:
        if block.is_genesis:
            continue
        parent = store.get(block.parent_hash)
        assert parent is not None
        assert block.height == parent.height + 1


@given(chains())
@settings(max_examples=60, deadline=None)
def test_every_block_extends_genesis(data):
    store, blocks = data
    for block in blocks:
        assert store.extends(block, store.genesis)
        assert store.has_ancestry(block)


@given(chains())
@settings(max_examples=60, deadline=None)
def test_extends_is_antisymmetric_except_for_equality(data):
    store, blocks = data
    for a in blocks:
        for b in blocks:
            if a.block_hash == b.block_hash:
                assert store.extends(a, b) and store.extends(b, a)
            elif store.extends(a, b) and store.extends(b, a):
                raise AssertionError("two distinct blocks extend each other")


@given(chains())
@settings(max_examples=60, deadline=None)
def test_conflicts_is_symmetric_and_exclusive_with_extends(data):
    store, blocks = data
    for a in blocks:
        for b in blocks:
            assert store.conflicts(a, b) == store.conflicts(b, a)
            if store.conflicts(a, b):
                assert not store.extends(a, b) and not store.extends(b, a)


@given(st.integers(min_value=0, max_value=512), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_block_wire_size_monotone_in_payload(payload, extra):
    store = BlockStore()
    small = make_block(store.genesis, 0, 1, 3, [Command("a", payload_size_bytes=payload)])
    large = make_block(store.genesis, 0, 1, 3, [Command("a", payload_size_bytes=payload + extra)])
    assert large.wire_size_bytes >= small.wire_size_bytes


class ReferenceStore:
    """The generator-walk ancestry queries the indexed store replaced (the oracle)."""

    def __init__(self) -> None:
        self._blocks: Dict[str, Block] = {GENESIS.block_hash: GENESIS}
        self._rooted = {GENESIS.block_hash}

    def add_if_absent(self, block: Block) -> bool:
        if block.block_hash in self._blocks:
            return False
        self._blocks[block.block_hash] = block
        return True

    def has_ancestry(self, block: Block) -> bool:
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
        current: Optional[Block] = block
        while current is not None:
            yield current
            if current.is_genesis:
                return
            current = self._blocks.get(current.parent_hash)

    def extends(self, descendant: Block, ancestor: Block) -> bool:
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
        return not self.extends(block_a, block_b) and not self.extends(block_b, block_a)


class ReferenceLog:
    """The generator-walk ``CommittedLog.commit`` (the oracle)."""

    def __init__(self, node_id: int, store: ReferenceStore) -> None:
        self.node_id = node_id
        self.store = store
        self._by_height: Dict[int, Block] = {}

    def commit(self, block: Block) -> List[Block]:
        pending: List[Block] = []
        anchored = False
        for ancestor in self.store.iter_ancestors(block):
            if ancestor.is_genesis:
                anchored = True
                break
            existing = self._by_height.get(ancestor.height)
            if existing is not None:
                if existing.block_hash != ancestor.block_hash:
                    raise SafetyViolation(
                        f"node {self.node_id} tried to commit {ancestor.short_hash()} at "
                        f"height {ancestor.height} over {existing.short_hash()}"
                    )
                anchored = True
                break
            pending.append(ancestor)
        if not anchored:
            raise KeyError(f"chain of {block.short_hash()} has missing ancestors")
        for ancestor in reversed(pending):
            self._by_height[ancestor.height] = ancestor
        return list(reversed(pending))


@st.composite
def block_trees(draw, max_blocks=10):
    """Genesis plus blocks with forks, forged heights, an orphan and a second genesis.

    Nothing is stored: the operations decide the insertion order.
    """
    blocks = [GENESIS]
    for i in range(draw(st.integers(min_value=1, max_value=max_blocks))):
        parent = blocks[draw(st.integers(min_value=0, max_value=len(blocks) - 1))]
        shape = draw(st.sampled_from(["child"] * 4 + ["forged"] * 2 + ["orphan", "genesis"]))
        parent_hash, height = parent.block_hash, parent.height + 1
        if shape == "forged":
            height = draw(st.integers(min_value=0, max_value=parent.height + 2))
        elif shape == "orphan":
            parent_hash = "f" * 64
        elif shape == "genesis":
            parent_hash, height = NO_PARENT, 0
        blocks.append(
            Block(
                parent_hash=parent_hash,
                height=height,
                view=draw(st.integers(min_value=1, max_value=3)),
                round=i + 3,
                proposer=draw(st.integers(min_value=0, max_value=5)),
                batch=Batch((Command(f"c{i}"),)),
            )
        )
    return blocks


def _outcome(call, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return call(*args)
    except (SafetyViolation, KeyError) as error:
        return type(error), str(error)


@given(block_trees(), st.data())
@settings(max_examples=300, deadline=None)
def test_indexed_chain_queries_match_the_generator_walk(blocks, data):
    """Random insertion orders (children before parents, duplicate adds),
    queries on unstored blocks and commit sequences answer exactly as the
    generator walk, raised errors included."""
    store, reference = BlockStore(), ReferenceStore()
    log, reference_log = CommittedLog(0, store), ReferenceLog(0, reference)
    index = st.integers(min_value=0, max_value=len(blocks) - 1)
    operation = st.tuples(
        st.sampled_from(["add", "commit", "commit", "has_ancestry", "extends", "conflicts"]),
        index,
        index,
    )
    # Every block is stored once, in a random order (children before
    # parents); between two stores run a few duplicate adds, commits and
    # queries, some on blocks not stored yet.
    for stored in data.draw(st.permutations(range(len(blocks)))):
        assert store.add_if_absent(blocks[stored]) == reference.add_if_absent(blocks[stored])
        for name, i, j in data.draw(st.lists(operation, max_size=4)):
            a, b = blocks[i], blocks[j]
            if name == "add":
                assert store.add_if_absent(a) == reference.add_if_absent(a)
            elif name == "has_ancestry":
                assert store.has_ancestry(a) == reference.has_ancestry(a), (name, i)
            elif name == "commit":
                assert _outcome(log.commit, a) == _outcome(reference_log.commit, a), (name, i)
            else:
                assert getattr(store, name)(a, b) == getattr(reference, name)(a, b), (name, i, j)
            assert store._rooted <= store._blocks.keys(), "a rooted hash is not stored"
    by_height = reference_log._by_height
    assert log.committed_blocks() == [by_height[height] for height in sorted(by_height)]
    for a in blocks:
        assert store.has_ancestry(a) == reference.has_ancestry(a)
        for b in blocks:
            assert store.extends(a, b) == reference.extends(a, b)
            assert store.conflicts(a, b) == reference.conflicts(a, b)
