"""Unit tests for workload generation."""

import pytest

from repro.eval.workloads import (
    SensorReadingWorkload,
    commands_for_run,
    client_for_run,
    fill_txpools,
    generate_commands,
)
from repro.core.txpool import ADMITTED, TxPool


class PoolHolder:
    def __init__(self):
        self.txpool = TxPool()

    def submit_commands(self, commands):
        return [self.txpool.admit(c) for c in commands].count(ADMITTED)


def test_generate_commands_deterministic():
    a = generate_commands(5, seed=3)
    b = generate_commands(5, seed=3)
    assert [c.command_id for c in a] == [c.command_id for c in b]
    assert [c.payload_digest for c in a] == [c.payload_digest for c in b]


def test_generate_commands_respects_payload_size():
    commands = generate_commands(3, payload_size_bytes=128)
    assert all(c.payload_size_bytes == 128 for c in commands)


def test_commands_for_run_includes_surplus():
    commands = commands_for_run(target_height=5, batch_size=2, surplus_blocks=4)
    assert len(commands) == (5 + 4) * 2


def test_commands_for_run_rejects_negative():
    with pytest.raises(ValueError):
        commands_for_run(-1, 1)


def test_fill_txpools_loads_every_replica():
    replicas = [PoolHolder(), PoolHolder()]
    commands = generate_commands(4)
    fill_txpools(replicas, commands)
    assert all(len(r.txpool) == 4 for r in replicas)


def test_client_for_run_uses_f():
    client = client_for_run(f=3)
    assert client.f == 3


def test_sensor_workload_one_reading_per_sensor_per_epoch():
    workload = SensorReadingWorkload(n_sensors=4, reading_bytes=32, seed=9)
    epoch = workload.next_epoch()
    assert len(epoch) == 4
    assert len({c.command_id for c in epoch}) == 4
    assert all(c.payload_size_bytes == 32 for c in epoch)


def test_sensor_workload_epochs_are_distinct():
    workload = SensorReadingWorkload(n_sensors=2, seed=9)
    flat = workload.epochs(3)
    assert len(flat) == 6
    assert len({c.command_id for c in flat}) == 6


def test_sensor_workload_rejects_zero_sensors():
    with pytest.raises(ValueError):
        SensorReadingWorkload(n_sensors=0)
