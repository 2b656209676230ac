"""Unit tests for blocks and the block store."""

import pytest

from repro.core.blocks import GENESIS, Block, BlockStore, make_block, make_genesis
from repro.core.types import Command


def chain_of(length, store=None, proposer=0, view=1):
    """Build a linear chain of the given length on top of genesis."""
    store = store or BlockStore()
    parent = store.genesis
    blocks = []
    for i in range(length):
        block = make_block(parent, proposer, view, i + 3, [Command(f"c{i}")])
        store.add_if_absent(block)
        blocks.append(block)
        parent = block
    return store, blocks


def test_genesis_properties():
    genesis = make_genesis()
    assert genesis.is_genesis
    assert genesis.height == 0
    assert genesis.block_hash == GENESIS.block_hash


def test_block_hash_deterministic_and_content_sensitive():
    a = make_block(GENESIS, 1, 1, 3, [Command("x")])
    b = make_block(GENESIS, 1, 1, 3, [Command("x")])
    c = make_block(GENESIS, 1, 1, 3, [Command("y")])
    assert a.block_hash == b.block_hash
    assert a.block_hash != c.block_hash


def test_block_hash_depends_on_parent():
    a = make_block(GENESIS, 1, 1, 3, [])
    b = make_block(a, 1, 1, 4, [])
    forged = Block(parent_hash="0" * 64, height=2, view=1, round=4, proposer=1)
    assert b.block_hash != forged.block_hash


def test_make_block_increments_height():
    a = make_block(GENESIS, 1, 1, 3, [])
    b = make_block(a, 1, 1, 4, [])
    assert a.height == 1 and b.height == 2
    assert b.parent_hash == a.block_hash


def test_negative_height_rejected():
    with pytest.raises(ValueError):
        Block(parent_hash="x", height=-1, view=1, round=1, proposer=0)


def test_wire_size_grows_with_commands():
    empty = make_block(GENESIS, 1, 1, 3, [])
    loaded = make_block(GENESIS, 1, 1, 3, [Command("c", payload_size_bytes=100)])
    assert loaded.wire_size_bytes > empty.wire_size_bytes


def test_store_chain_and_ancestry():
    store, blocks = chain_of(4)
    assert store.has_ancestry(blocks[-1])
    chain = list(store.iter_ancestors(blocks[-1]))[::-1]
    assert chain[0].is_genesis
    assert [b.height for b in chain] == [0, 1, 2, 3, 4]


def test_store_missing_parent_breaks_ancestry():
    store = BlockStore()
    orphan = Block(parent_hash="f" * 64, height=5, view=1, round=7, proposer=0)
    store.add_if_absent(orphan)
    assert not store.has_ancestry(orphan)
    assert [b.block_hash for b in store.iter_ancestors(orphan)] == [orphan.block_hash]


def test_querying_an_unstored_block_does_not_root_its_children():
    store, blocks = chain_of(2)
    unstored = make_block(blocks[-1], 0, 1, 9, [Command("b")])
    assert store.has_ancestry(unstored)
    child = make_block(unstored, 0, 1, 10, [Command("child")])
    store.add_if_absent(child)
    assert not store.has_ancestry(child)
    assert not store.has_ancestry(child)
    store.add_if_absent(unstored)
    assert store.has_ancestry(child)


def test_extends_along_chain():
    store, blocks = chain_of(4)
    assert store.extends(blocks[3], blocks[0])
    assert store.extends(blocks[3], store.genesis)
    assert store.extends(blocks[2], blocks[2])
    assert not store.extends(blocks[0], blocks[3])


def test_conflicts_between_forks():
    store, blocks = chain_of(2)
    fork = make_block(blocks[0], 9, 2, 4, [Command("fork")])
    store.add_if_absent(fork)
    assert store.conflicts(fork, blocks[1])
    assert not store.conflicts(fork, blocks[0])
    assert not store.conflicts(blocks[1], blocks[1])


def test_store_contains_and_get():
    store, blocks = chain_of(1)
    assert store.add_if_absent(blocks[0]) is False  # already stored
    assert store.get(blocks[0].block_hash) is blocks[0]
    assert store.get(store.genesis.block_hash) is store.genesis
    assert store.get("missing") is None


def test_iter_ancestors_stops_at_genesis():
    store, blocks = chain_of(3)
    ancestors = list(store.iter_ancestors(blocks[2]))
    assert ancestors[0] is blocks[2]
    assert ancestors[-1].is_genesis


def test_short_hash_prefix():
    block = make_block(GENESIS, 1, 1, 3, [])
    assert block.block_hash.startswith(block.short_hash())
    assert len(block.short_hash()) == 10
