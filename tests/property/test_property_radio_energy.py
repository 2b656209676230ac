"""Property-based tests for the radio and energy models."""

from hypothesis import given, settings, strategies as st

from repro.energy.meter import EnergyCategory, EnergyMeter
from repro.radio.ble import BleAdvertisementKCast, fragments_for_payload
from repro.radio.gatt import BleGattUnicast
from repro.radio.media import lte_medium, wifi_medium
from repro.radio.reliability import AdvertisementLossModel


@given(st.integers(min_value=0, max_value=4096))
@settings(max_examples=80, deadline=None)
def test_fragment_count_covers_payload(payload):
    fragments = fragments_for_payload(payload)
    assert fragments * 25 >= payload
    assert (fragments - 1) * 25 < max(payload, 1)


@given(st.integers(min_value=0, max_value=2048), st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_kcast_cost_monotone_in_payload_and_k(payload, k):
    radio = BleAdvertisementKCast()
    cost = radio.transmission_cost(payload, k)
    bigger = radio.transmission_cost(payload + 25, k)
    assert bigger.sender_energy_j >= cost.sender_energy_j
    assert cost.reliability > 0.99


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_kcast_failure_monotone(k, redundancy):
    model = AdvertisementLossModel()
    failure = model.kcast_failure_probability(k, redundancy)
    assert 0.0 <= failure <= 1.0
    assert model.kcast_failure_probability(k, redundancy + 1) <= failure
    assert model.kcast_failure_probability(k + 1, redundancy) >= failure


@given(st.integers(min_value=0, max_value=4096))
@settings(max_examples=60, deadline=None)
def test_media_costs_monotone_and_ordered(size):
    wifi, lte = wifi_medium(), lte_medium()
    assert wifi.send_energy_j(size) <= wifi.send_energy_j(size + 64)
    assert lte.send_energy_j(size) >= wifi.send_energy_j(size)


@given(st.integers(min_value=0, max_value=2048), st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_gatt_fanout_linear(size, d_out):
    gatt = BleGattUnicast()
    assert gatt.fanout_send_energy_j(size, d_out) == d_out * gatt.send_energy_j(size)


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_meter_total_equals_sum_of_charges(charges):
    meter = EnergyMeter(0)
    categories = list(EnergyCategory)
    for i, amount in enumerate(charges):
        meter.charge(categories[i % len(categories)], amount)
    assert abs(meter.total_joules - sum(charges)) < 1e-9
