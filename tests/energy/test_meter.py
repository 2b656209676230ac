"""Unit tests for per-node energy metering."""

import inspect

import pytest

from repro.energy.meter import EnergyBreakdown, EnergyCategory, EnergyMeter, total_energy


def test_charges_accumulate_per_category():
    meter = EnergyMeter(0)
    meter.charge(EnergyCategory.TRANSMIT, 0.5)
    meter.charge(EnergyCategory.TRANSMIT, 0.25)
    meter.charge(EnergyCategory.VERIFY, 0.1)
    assert meter.breakdown.get(EnergyCategory.TRANSMIT) == pytest.approx(0.75)
    assert meter.breakdown.get(EnergyCategory.VERIFY) == pytest.approx(0.1)
    assert meter.total_joules == pytest.approx(0.85)
    assert meter.total_millijoules == pytest.approx(850.0)


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        EnergyMeter(0).charge(EnergyCategory.TRANSMIT, -0.1)


def test_charge_takes_a_category_and_an_amount_only():
    """The meter is a counter: no timestamp, no per-charge annotation."""
    assert list(inspect.signature(EnergyMeter.charge).parameters) == [
        "self",
        "category",
        "joules",
    ]
    meter = EnergyMeter(0)
    with pytest.raises(ValueError, match="negative"):
        meter.charge(EnergyCategory.SIGN, -1e-9)
    assert meter.total_joules == 0.0


def test_sleep_charge_uses_power_draw():
    meter = EnergyMeter(0, sleep_power_w=0.0003)
    meter.charge_sleep(1000.0)
    assert meter.breakdown.get(EnergyCategory.SLEEP) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        meter.charge_sleep(-1.0)


def test_breakdown_groups():
    breakdown = EnergyBreakdown()
    breakdown.add(EnergyCategory.TRANSMIT, 1.0)
    breakdown.add(EnergyCategory.RECEIVE, 2.0)
    breakdown.add(EnergyCategory.SIGN, 0.5)
    breakdown.add(EnergyCategory.VERIFY, 0.25)
    breakdown.add(EnergyCategory.HASH, 0.05)
    assert breakdown.communication == pytest.approx(3.0)
    assert breakdown.cryptography == pytest.approx(0.8)
    assert breakdown.total == pytest.approx(3.8)


def test_breakdown_as_dict_keys_are_strings():
    breakdown = EnergyBreakdown({EnergyCategory.SIGN: 1.0})
    assert breakdown.as_dict() == {"sign": 1.0}


def test_reset_clears_everything():
    meter = EnergyMeter(0)
    meter.charge(EnergyCategory.TRANSMIT, 0.1)
    meter.reset()
    assert meter.total_joules == 0.0
    assert meter.breakdown.joules == {}


def test_snapshot_is_independent_copy():
    meter = EnergyMeter(0)
    meter.charge(EnergyCategory.SIGN, 0.4)
    snap = meter.snapshot()
    meter.charge(EnergyCategory.SIGN, 0.4)
    assert snap.total == pytest.approx(0.4)
    assert meter.total_joules == pytest.approx(0.8)


def test_total_energy_excludes_requested_nodes():
    meters = [EnergyMeter(i) for i in range(3)]
    for meter in meters:
        meter.charge(EnergyCategory.SIGN, 1.0)
    assert total_energy(meters) == pytest.approx(3.0)
    assert total_energy(meters, exclude={1}) == pytest.approx(2.0)
