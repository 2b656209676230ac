"""Unit tests for protocol configuration."""

import pytest

from repro.core.config import ProtocolConfig


def test_round_robin_leader_cycles_from_view_one():
    config = ProtocolConfig(n=4, f=1, delta=1.0)
    assert [config.leader_of(v) for v in range(1, 6)] == [0, 1, 2, 3, 0]


def test_round_robin_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        ProtocolConfig(n=0, f=0, delta=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(n=1, f=0, delta=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, f=2, delta=1.0)  # needs f < n/2
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, f=-1, delta=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, f=1, delta=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, f=1, delta=1.0, target_height=0)


def test_quorum_is_f_plus_one():
    config = ProtocolConfig(n=7, f=3, delta=1.0)
    assert config.quorum == 4


def test_default_leader_schedule_is_round_robin():
    config = ProtocolConfig(n=5, f=2, delta=1.0)
    assert config.leader_of(1) == 0
    assert config.leader_of(6) == 0
    assert config.leader_of(3) == 2


def test_maximum_fault_tolerance_accepted():
    # f can be anything strictly below n/2.
    config = ProtocolConfig(n=13, f=6, delta=1.0)
    assert config.quorum == 7
