"""Unit tests for core value types."""

import pytest

from repro.core.types import Batch, Command


def test_command_wire_size_includes_payload_and_header():
    command = Command(command_id="c1", payload_size_bytes=100)
    assert command.wire_size_bytes == 100 + 12


def test_command_rejects_negative_payload():
    with pytest.raises(ValueError):
        Command(command_id="c1", payload_size_bytes=-1)


def test_batch_size_and_ids():
    batch = Batch((Command("a", payload_size_bytes=10), Command("b", payload_size_bytes=20)))
    assert len(batch.commands) == 2
    assert batch.command_ids == ("a", "b")
    assert batch.wire_size_bytes == (10 + 12) + (20 + 12)


def test_empty_batch():
    batch = Batch()
    assert len(batch.commands) == 0
    assert batch.wire_size_bytes == 0
    assert batch.command_ids == ()
