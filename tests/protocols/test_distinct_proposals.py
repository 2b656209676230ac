"""Pipelined proposals carry distinct commands.

The proposer builds its batch from the chain it extends: the first pooled
commands no uncommitted ancestor already carries.  So a committed log never
orders a command twice, a fault-free log is the workload stream in order,
and a block a view change abandoned gives its commands back to the next
leader with nothing to release.
"""

import pytest

from repro.core.adversary import FaultPlan
from repro.eval.runner import PROTOCOLS, DeploymentSpec
from repro.session import Session
from repro.workload import ClosedLoopPreload, TraceReplay

TARGET_HEIGHT = 6
BATCH_SIZE = 2

LEADER_FAULTS = {
    "fault-free": None,
    # Late enough that the spaced-out leader has blocks in flight.
    "crash-leader": FaultPlan(faulty=(0,), behaviour="crash", crash_time=3.0),
    "equivocate-leader": FaultPlan(faulty=(0,), behaviour="equivocate", trigger_round=4),
    "silent-leader": FaultPlan(faulty=(0,), behaviour="silent_leader", trigger_round=4),
}


def run(protocol, block_interval, fault):
    kwargs = dict(
        protocol=protocol, n=7, f=2, k=3, seed=11, target_height=TARGET_HEIGHT,
        batch_size=BATCH_SIZE, block_interval=block_interval,
    )
    if LEADER_FAULTS[fault] is not None:
        kwargs["fault_plan"] = LEADER_FAULTS[fault]
    session = Session.from_spec(DeploymentSpec(**kwargs))
    session.run()
    return session


def correct_replicas(session):
    byzantine = set(session.spec.byzantine_nodes)
    return [replica for pid, replica in session.replicas.items() if pid not in byzantine]


def abandoned_command_ids(session):
    """Ids carried by a block some node stored and no correct node committed."""
    committed = {
        block.block_hash
        for replica in correct_replicas(session)
        for block in replica.log.committed_blocks()
    }
    return {
        command_id
        for replica in session.replicas.values()
        for block in replica.blocks._blocks.values()
        if block.block_hash not in committed
        for command_id in block.batch.command_ids
    }


@pytest.mark.parametrize("fault", list(LEADER_FAULTS))
@pytest.mark.parametrize("block_interval", [0.0, 2.0])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_no_command_is_committed_twice(protocol, block_interval, fault):
    session = run(protocol, block_interval, fault)
    stream = [c.command_id for c in ClosedLoopPreload().commands_for(session.spec)]
    logs = [replica.log.committed_command_ids() for replica in correct_replicas(session)]
    for log in logs:
        assert len(log) == len(set(log))
        # Leaders differ, the order of the workload does not: every log is
        # a prefix of the stream, whoever proposed which part of it.
        assert log == stream[: len(log)]
    if fault == "fault-free":
        assert all(log == stream[: TARGET_HEIGHT * BATCH_SIZE] for log in logs)
    # Re-proposability: what an abandoned block carried is committed later.
    longest = max(logs, key=len)
    assert abandoned_command_ids(session) <= set(longest)


@pytest.mark.parametrize("block_interval", [0.0, 2.0])
def test_an_equivocating_leaders_abandoned_commands_are_proposed_again(block_interval):
    """The case above is not vacuous: EESMR drops the equivocated round and
    the one before it, and the next leader orders their commands first."""
    session = run("eesmr", block_interval, "equivocate-leader")
    abandoned = abandoned_command_ids(session)
    assert abandoned == {"c0-0", "c0-1", "c0-2", "c0-3"}
    for replica in correct_replicas(session):
        assert replica.log.committed_command_ids()[:4] == ["c0-0", "c0-1", "c0-2", "c0-3"]
        assert replica.log.block_at(1).proposer != 0


def test_trusted_baseline_outlives_a_workload_shorter_than_the_target():
    """Two commands, five blocks: the control node waits for uploads rather
    than order empty blocks early, but an empty upload (the leaf has nothing
    left) still gets its empty block, so the run reaches the target and the
    simulator runs dry."""
    spec = DeploymentSpec(
        protocol="trusted-baseline", n=7, f=2, k=3, seed=3, target_height=5,
        workload=TraceReplay(entries=({"time": 0.0}, {"time": 2.5})),
    )
    session = Session.from_spec(spec)
    session.run()
    assert session.sim.pending_events == 0
    ids = [c.command_id for c in spec.workload.commands_for(spec)]
    for replica in session.replicas.values():
        assert replica.committed_height == 5
        assert replica.log.committed_command_ids() == ids
    assert session.finish().safety.consistent
