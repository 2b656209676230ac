"""Unit tests for the BLE GATT unicast model and the Fig. 2b crossover."""

import pytest

from repro.radio.ble import BleAdvertisementKCast
from repro.radio.gatt import GATT_CONNECTION_OVERHEAD_MJ, BleGattUnicast


def kcast_send_energy_j(payload: int) -> float:
    """Sender energy of one reliable k-cast to k = 7 receivers."""
    return BleAdvertisementKCast().transmission_cost(payload, 7).sender_energy_j


def test_unicast_cost_has_connection_overhead():
    gatt = BleGattUnicast()
    zero = gatt.transmission_cost(0)
    assert zero.sender_energy_j == pytest.approx(GATT_CONNECTION_OVERHEAD_MJ / 1000.0)


def test_unicast_cost_grows_with_payload():
    gatt = BleGattUnicast()
    assert gatt.send_energy_j(500) > gatt.send_energy_j(100)
    assert gatt.transmission_cost(500).receiver_energy_j > gatt.transmission_cost(100).receiver_energy_j


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        BleGattUnicast().transmission_cost(-1)


def test_fanout_energy_linear_in_d_out():
    """The paper: energy of emulating a k-cast with unicasts grows linearly with k."""
    gatt = BleGattUnicast()
    single = gatt.send_energy_j(200)
    assert gatt.fanout_send_energy_j(200, 7) == pytest.approx(7 * single)
    with pytest.raises(ValueError):
        gatt.fanout_send_energy_j(200, -1)


def test_kcast_beats_seven_unicasts_for_small_payloads():
    """Fig. 2b: the k-cast wins at small payloads for k = 7."""
    payload = 100
    assert kcast_send_energy_j(payload) < BleGattUnicast().fanout_send_energy_j(payload, 7)


def test_unicast_advantage_improves_with_payload():
    """Fig. 2b: the unicast alternative catches up as the payload grows."""
    gatt = BleGattUnicast()

    def ratio(payload: int) -> float:
        return gatt.fanout_send_energy_j(payload, 7) / kcast_send_energy_j(payload)

    assert ratio(500) < ratio(100)


def test_single_unicast_always_cheaper_than_kcast7():
    gatt = BleGattUnicast()
    for payload in (100, 300, 500):
        assert gatt.send_energy_j(payload) < kcast_send_energy_j(payload)
