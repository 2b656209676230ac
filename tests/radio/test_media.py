"""Unit tests for the Table 1 media energy models."""

import pytest

from repro.radio.media import (
    TABLE1_MEDIA_ENERGY_MJ,
    MediumUnicastAdapter,
    ble_link_medium,
    lte_medium,
    make_medium,
    wifi_medium,
)


def test_table1_has_four_measured_sizes():
    assert [row.message_size_bytes for row in TABLE1_MEDIA_ENERGY_MJ] == [256, 512, 1024, 2048]


def test_table1_values_match_paper_for_256_bytes():
    row = TABLE1_MEDIA_ENERGY_MJ[0]
    assert row.ble_send_mj == pytest.approx(0.73)
    assert row.lte_send_mj == pytest.approx(494.84)
    assert row.wifi_send_mj == pytest.approx(81.20)


def test_tabulated_model_reproduces_measured_points():
    wifi = wifi_medium()
    assert wifi.send_energy_j(512) == pytest.approx(153.98 / 1000.0)
    assert wifi.recv_energy_j(2048) == pytest.approx(423.58 / 1000.0)


def test_tabulated_model_interpolates_between_points():
    wifi = wifi_medium()
    mid = wifi.send_energy_j(768)
    assert 153.98 / 1000.0 < mid < 310.54 / 1000.0


def test_tabulated_model_extrapolates_above_table():
    lte = lte_medium()
    assert lte.send_energy_j(4096) > lte.send_energy_j(2048)


def test_tabulated_model_scales_below_table():
    ble = ble_link_medium()
    assert 0 < ble.send_energy_j(64) < ble.send_energy_j(256)


def test_media_ordering_ble_cheapest_lte_most_expensive():
    """The paper: BLE is ~2 orders below WiFi and ~3 below 4G."""
    ble, wifi, lte = ble_link_medium(), wifi_medium(), lte_medium()
    for size in (256, 1024, 2048):
        assert ble.send_energy_j(size) < wifi.send_energy_j(size) < lte.send_energy_j(size)
    assert lte.send_energy_j(1024) / ble.send_energy_j(1024) > 500


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        wifi_medium().send_energy_j(-1)


def test_make_medium_registry():
    assert make_medium("wifi").name == "wifi"
    assert make_medium("4g-lte").name == "4g-lte"
    with pytest.raises(KeyError):
        make_medium("satellite")


def test_unicast_adapter_wraps_medium_costs():
    adapter = MediumUnicastAdapter(lte_medium())
    cost = adapter.transmission_cost(512)
    assert cost.sender_energy_j == pytest.approx(989.68 / 1000.0)
    assert cost.receiver_energy_j == pytest.approx(139.08 / 1000.0)
    assert cost.duration_s > 0
