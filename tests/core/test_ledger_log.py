"""Unit tests for committed logs and the cross-node safety checker."""

import pytest

from repro.core.blocks import BlockStore, make_block
from repro.core.ledger import CommittedLog, SafetyChecker, SafetyViolation
from repro.core.types import Command


def build_chain(store, length, proposer=0, view=1, tag=""):
    parent = store.genesis
    blocks = []
    for i in range(length):
        block = make_block(parent, proposer, view, i + 3, [Command(f"{tag}c{i}")])
        store.add_if_absent(block)
        blocks.append(block)
        parent = block
    return blocks


def test_commit_appends_ancestors_in_order():
    store = BlockStore()
    blocks = build_chain(store, 3)
    log = CommittedLog(0, store)
    newly = log.commit(blocks[2])
    assert [b.height for b in newly] == [1, 2, 3]
    assert log.highest_height == 3
    assert len(log) == 3


def test_commit_is_idempotent():
    store = BlockStore()
    blocks = build_chain(store, 2)
    log = CommittedLog(0, store)
    log.commit(blocks[1])
    assert log.commit(blocks[1]) == []


def test_commit_conflicting_block_raises():
    store = BlockStore()
    blocks = build_chain(store, 2)
    fork = make_block(blocks[0], 9, 2, 4, [Command("fork")])
    store.add_if_absent(fork)
    log = CommittedLog(0, store)
    log.commit(blocks[1])
    with pytest.raises(SafetyViolation):
        log.commit(fork)


def test_committed_command_ids_linearized():
    store = BlockStore()
    blocks = build_chain(store, 3)
    log = CommittedLog(0, store)
    log.commit(blocks[2])
    assert log.committed_command_ids() == ["c0", "c1", "c2"]


def test_safety_checker_consistent_logs():
    store = BlockStore()
    blocks = build_chain(store, 3)
    logs = {}
    for pid in range(3):
        log = CommittedLog(pid, store)
        log.commit(blocks[2])
        logs[pid] = log
    report = SafetyChecker(logs, ()).check()
    assert report.consistent
    assert report.common_prefix_height == 3


def test_safety_checker_detects_conflict():
    store = BlockStore()
    blocks = build_chain(store, 2)
    fork_store = BlockStore()
    fork_blocks = build_chain(fork_store, 2, proposer=9, tag="f")
    log_a = CommittedLog(0, store)
    log_a.commit(blocks[1])
    log_b = CommittedLog(1, fork_store)
    log_b.commit(fork_blocks[1])
    checker = SafetyChecker({0: log_a, 1: log_b}, ())
    report = checker.check()
    assert not report.consistent
    assert report.details


def test_safety_checker_ignores_faulty_nodes():
    store = BlockStore()
    blocks = build_chain(store, 2)
    fork_store = BlockStore()
    fork_blocks = build_chain(fork_store, 2, proposer=9, tag="f")
    log_a = CommittedLog(0, store)
    log_a.commit(blocks[1])
    log_bad = CommittedLog(1, fork_store)
    log_bad.commit(fork_blocks[1])
    report = SafetyChecker({0: log_a, 1: log_bad}, faulty=[1]).check()
    assert report.consistent


def test_safety_checker_prefix_with_lagging_node():
    store = BlockStore()
    blocks = build_chain(store, 3)
    fast = CommittedLog(0, store)
    fast.commit(blocks[2])
    slow = CommittedLog(1, store)
    slow.commit(blocks[0])
    checker = SafetyChecker({0: fast, 1: slow}, ())
    report = checker.check()
    assert report.consistent
    assert report.common_prefix_height == 1


def test_block_at_returns_none_when_missing():
    log = CommittedLog(0, BlockStore())
    assert log.block_at(5) is None


# -------------------------------------------- indexes kept by commit()
def assert_indexes_match_a_scan(log):
    """``highest_height`` and ``in`` read indexes that ``commit()``
    maintains; each must equal what scanning the log gives."""
    blocks = list(log._by_height.values())
    assert log.highest_height == max(log._by_height, default=0)
    assert sorted(log._by_hash) == sorted(b.block_hash for b in blocks)
    for height, block in log._by_height.items():
        assert block.height == height and block.block_hash in log
    assert "missing" not in log


def test_indexes_follow_in_order_commits():
    store = BlockStore()
    blocks = build_chain(store, 4)
    log = CommittedLog(0, store)
    assert_indexes_match_a_scan(log)  # empty: height 0, nothing contained
    for block in blocks:
        log.commit(block)
        assert log.highest_height == block.height
        assert_indexes_match_a_scan(log)


def test_indexes_follow_an_ancestor_batch_commit():
    store = BlockStore()
    blocks = build_chain(store, 6)
    log = CommittedLog(0, store)
    log.commit(blocks[1])
    log.commit(blocks[5])  # commits heights 3..6 in one call
    assert log.highest_height == 6
    assert blocks[3].block_hash in log
    assert_indexes_match_a_scan(log)
    log.commit(blocks[2])  # already committed: nothing moves
    assert log.highest_height == 6
    assert_indexes_match_a_scan(log)


def test_indexes_follow_a_sync_adopted_suffix():
    """A node that was dark adopts the suffix it missed through catch-up
    state transfer; its log's indexes cover the adopted blocks too."""
    from repro.eval.runner import DeploymentSpec
    from repro.session.builder import SessionBuilder
    from repro.testkit import faults

    spec = DeploymentSpec(
        protocol="eesmr", n=5, f=1, k=2, target_height=5, block_interval=2.0, seed=12,
        fault_schedule=faults.crash_recover(2, start=1.0, heal=7.5),
    )
    session = SessionBuilder(spec).build()
    session.run_to_quiescence()
    assert session.replicas[2].committed_height == spec.target_height
    for replica in session.replicas.values():
        assert_indexes_match_a_scan(replica.log)
