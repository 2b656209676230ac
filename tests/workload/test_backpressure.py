"""Txpool backpressure: admission verdicts, overload accounting, surfacing.

A bounded pool must stay bounded under open-loop overload, tell duplicates
apart from overflow drops, keep the leader's drain order untouched, and
surface its accounting in run stats and the structured trace — with the
seed's unbounded pools keeping their exact key set (golden fingerprints).
"""

import warnings

import pytest

from repro.core.config import ProtocolConfig
from repro.core.txpool import (
    ADMITTED,
    DUPLICATE,
    OVERFLOW,
    TxPool,
    TxPoolOverflowWarning,
)
from repro.core.types import Command
from repro.eval.runner import DeploymentSpec, run_protocol
from repro.testkit.trace import TraceRecorder
from repro.workload import OpenLoopPoisson


def commands(*ids):
    return [Command(command_id=i) for i in ids]


def overload_spec(limit=4, rate=16.0):
    return DeploymentSpec(
        protocol="eesmr",
        n=5,
        f=1,
        k=2,
        target_height=4,
        block_interval=0.5,
        seed=17,
        workload=OpenLoopPoisson(rate=rate, clients=3),
        txpool_limit=limit,
    )


# ------------------------------------------------------------ pool verdicts
def test_admit_returns_explicit_verdicts():
    pool = TxPool(max_size=2)
    assert pool.admit(Command("a")) == ADMITTED
    assert pool.admit(Command("a")) == DUPLICATE
    assert pool.admit(Command("b")) == ADMITTED
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TxPoolOverflowWarning)
        assert pool.admit(Command("c")) == OVERFLOW


def test_duplicate_and_overflow_are_counted_separately():
    pool = TxPool(max_size=2)
    pool.add_all(commands("a", "b"))
    pool.admit(Command("a"))  # duplicate, not a drop
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TxPoolOverflowWarning)
        pool.admit(Command("c"))  # overflow
        pool.admit(Command("c"))  # still overflow (pool is full, not pending)
    assert pool.duplicates == 1
    assert pool.dropped == 2
    assert pool.admitted == 2
    assert pool.high_watermark == 2
    assert pool.admission_stats() == {
        "admitted": 2,
        "duplicates": 1,
        "dropped": 2,
        "pending": 2,
        "high_watermark": 2,
        "max_size": 2,
    }


def test_first_overflow_warns_once_per_pool():
    pool = TxPool(max_size=1)
    pool.add(Command("a"))
    with pytest.warns(TxPoolOverflowWarning, match="max_size=1"):
        pool.admit(Command("b"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        assert pool.admit(Command("c")) == OVERFLOW


def test_bounded_pool_stays_bounded_and_preserves_drain_order():
    pool = TxPool(max_size=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TxPoolOverflowWarning)
        pool.add_all(commands("a", "b", "c", "d", "e"))
    assert len(pool) == 3
    # Drain order is arrival order, untouched by the rejected tail.
    assert [c.command_id for c in pool.peek_batch(10)] == ["a", "b", "c"]
    pool.remove(["a"])
    assert pool.add(Command("f"))
    assert [c.command_id for c in pool.peek_batch(10)] == ["b", "c", "f"]


def test_max_size_validation():
    with pytest.raises(ValueError, match="max_size"):
        TxPool(max_size=0)
    TxPool(max_size=None)  # unbounded stays legal


def test_protocol_config_validates_txpool_limit():
    with pytest.raises(ValueError, match="txpool_limit"):
        ProtocolConfig(n=4, f=1, delta=1.0, txpool_limit=0)
    assert ProtocolConfig(n=4, f=1, delta=1.0).txpool_limit is None


def test_deployment_spec_validates_txpool_limit():
    with pytest.raises(ValueError, match="txpool_limit"):
        DeploymentSpec(txpool_limit=0)


# --------------------------------------------------------------- surfacing
def test_overload_run_surfaces_drop_accounting():
    spec = overload_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TxPoolOverflowWarning)
        result = run_protocol(spec, recorder=TraceRecorder())
    assert result.commands_dropped > 0
    assert result.txpool_high_watermark == spec.txpool_limit
    # The structured trace carries per-replica drop counters...
    stats = result.trace.replica_stats
    assert any(s.get("commands_dropped", 0) > 0 for s in stats.values())
    # ...and the spec fingerprint records both the workload and the bound.
    assert result.trace.spec["txpool_limit"] == spec.txpool_limit
    assert result.trace.spec["workload"]["kind"] == "open-loop"


def test_default_runs_keep_seed_trace_key_set():
    """Unbounded preload runs must not grow admission keys (golden traces)."""
    spec = DeploymentSpec(protocol="eesmr", n=5, f=1, k=2, target_height=3, seed=29)
    result = run_protocol(spec, recorder=TraceRecorder())
    assert result.commands_dropped == 0
    for stats in result.trace.replica_stats.values():
        assert "commands_dropped" not in stats
        assert "commands_duplicate" not in stats
    assert "workload" not in result.trace.spec
    assert "txpool_limit" not in result.trace.spec


def test_overload_run_stays_safe_and_live():
    """Backpressure degrades goodput, never safety or leader liveness."""
    spec = overload_spec(limit=2, rate=32.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TxPoolOverflowWarning)
        result = run_protocol(spec, recorder=TraceRecorder())
    assert result.safety.consistent
    assert result.min_committed_height >= spec.target_height
