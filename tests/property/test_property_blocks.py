"""Property-based tests for blocks, chains and the block store."""

from hypothesis import given, settings, strategies as st

from repro.core.blocks import BlockStore, make_block
from repro.core.types import Command


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
