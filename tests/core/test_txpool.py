"""Unit tests for the transaction pool."""

import pytest

from repro.core.txpool import ADMITTED, DUPLICATE, TxPool
from repro.core.types import Command


def commands(*ids):
    return [Command(command_id=i) for i in ids]


def admit_all(pool, batch):
    """How many of ``batch`` the pool admitted."""
    return [pool.admit(command) for command in batch].count(ADMITTED)


def pending_ids(pool):
    return [c.command_id for c in pool.peek_batch(len(pool))]


def test_add_and_len():
    pool = TxPool()
    assert admit_all(pool, commands("a", "b", "c")) == 3
    assert len(pool) == 3
    assert pending_ids(pool) == ["a", "b", "c"]


def test_duplicates_are_rejected():
    pool = TxPool()
    pool.admit(Command("a"))
    assert pool.admit(Command("a")) == DUPLICATE
    assert len(pool) == 1


def test_peek_batch_preserves_arrival_order_and_does_not_remove():
    pool = TxPool()
    admit_all(pool, commands("a", "b", "c"))
    batch = pool.peek_batch(2)
    assert [c.command_id for c in batch] == ["a", "b"]
    assert len(pool) == 3


def test_peek_batch_larger_than_pool():
    pool = TxPool()
    admit_all(pool, commands("a"))
    assert len(pool.peek_batch(10)) == 1


def test_peek_batch_skips_excluded_ids_in_arrival_order():
    pool = TxPool()
    admit_all(pool, commands("a", "b", "c", "d"))
    batch = pool.peek_batch(2, exclude={"a", "c"})
    assert [c.command_id for c in batch] == ["b", "d"]
    assert len(pool) == 4


def test_peek_batch_respects_batch_size_after_exclusion():
    pool = TxPool()
    admit_all(pool, commands("a", "b", "c", "d"))
    assert [c.command_id for c in pool.peek_batch(1, exclude={"a"})] == ["b"]
    assert pool.peek_batch(3, exclude={"a", "b", "c", "d"}) == []
    assert pool.peek_batch(0, exclude={"a"}) == []


def test_peek_batch_with_empty_exclude_is_the_pool_head():
    pool = TxPool()
    admit_all(pool, commands("a", "b", "c"))
    assert pool.peek_batch(2, exclude=set()) == pool.peek_batch(2)
    assert pool.peek_batch(2, exclude={"zzz"}) == pool.peek_batch(2)


def test_peek_batch_negative_rejected():
    with pytest.raises(ValueError):
        TxPool().peek_batch(-1)


def test_remove_committed_commands():
    pool = TxPool()
    admit_all(pool, commands("a", "b", "c"))
    assert pool.remove(["a", "c", "zzz"]) == 2
    assert pending_ids(pool) == ["b"]


def test_max_size_drops_overflow():
    pool = TxPool(max_size=2)
    assert admit_all(pool, commands("a", "b", "c")) == 2
    assert pool.dropped == 1
    assert len(pool) == 2
