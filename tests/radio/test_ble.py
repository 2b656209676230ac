"""Unit tests for the BLE advertisement k-cast model."""

import pytest

from repro.radio.ble import (
    BLE_ADVERTISEMENT_PAYLOAD_BYTES,
    BleAdvertisementKCast,
    fragments_for_payload,
)


def test_fragmentation_respects_gap_limit():
    assert BLE_ADVERTISEMENT_PAYLOAD_BYTES == 25
    assert fragments_for_payload(0) == 1
    assert fragments_for_payload(25) == 1
    assert fragments_for_payload(26) == 2
    assert fragments_for_payload(250) == 10


def test_fragmentation_rejects_negative_payload():
    with pytest.raises(ValueError):
        fragments_for_payload(-1)


def test_paper_operating_point_25_bytes_k7():
    """~5.3 mJ sender / ~9.98 mJ receiver per 25-byte message at 99.99 %, k=7."""
    radio = BleAdvertisementKCast()
    sender_mj, receiver_mj = radio.message_energy_25b(7)
    assert sender_mj == pytest.approx(5.3, rel=0.01)
    assert receiver_mj == pytest.approx(9.98, rel=0.01)


def test_transmission_cost_scales_with_fragments():
    radio = BleAdvertisementKCast()
    small = radio.transmission_cost(25, 7)
    large = radio.transmission_cost(250, 7)
    assert fragments_for_payload(250) == 10 * fragments_for_payload(25)
    assert large.sender_energy_j == pytest.approx(10 * small.sender_energy_j)


def test_transmission_cost_redundancy_grows_with_k():
    radio = BleAdvertisementKCast()
    assert radio.redundancy_for(7) >= radio.redundancy_for(1)
    assert radio.transmission_cost(25, 7).sender_energy_j >= radio.transmission_cost(25, 1).sender_energy_j


def test_transmission_reliability_meets_target():
    radio = BleAdvertisementKCast()
    cost = radio.transmission_cost(25, 7)
    assert cost.reliability >= 0.9999 * 0.999  # single-fragment four nines


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        BleAdvertisementKCast().transmission_cost(25, 0)


def test_medium_api_send_recv():
    """The run path prices a k-cast through ``transmission_cost``, in Joules."""
    cost = BleAdvertisementKCast().transmission_cost(25, 7)
    assert cost.sender_energy_j == pytest.approx(5.3 / 1000.0, rel=0.01)
    assert cost.per_receiver_energy_j == pytest.approx(9.98 / 1000.0, rel=0.01)
