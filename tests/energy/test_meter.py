"""Unit tests for per-node energy metering."""

import inspect

import pytest

from repro.energy.meter import EnergyBreakdown, EnergyCategory, EnergyMeter


def test_charges_accumulate_per_category():
    meter = EnergyMeter(0)
    meter.charge(EnergyCategory.TRANSMIT, 0.5)
    meter.charge(EnergyCategory.TRANSMIT, 0.25)
    meter.charge(EnergyCategory.VERIFY, 0.1)
    assert meter.breakdown.get(EnergyCategory.TRANSMIT) == pytest.approx(0.75)
    assert meter.breakdown.get(EnergyCategory.VERIFY) == pytest.approx(0.1)
    assert meter.total_joules == pytest.approx(0.85)


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


def test_breakdown_groups():
    breakdown = EnergyBreakdown()
    breakdown.add(EnergyCategory.TRANSMIT, 1.0)
    breakdown.add(EnergyCategory.RECEIVE, 2.0)
    breakdown.add(EnergyCategory.SIGN, 0.5)
    breakdown.add(EnergyCategory.VERIFY, 0.25)
    breakdown.add(EnergyCategory.HASH, 0.05)
    assert breakdown.cryptography == pytest.approx(0.8)
    assert breakdown.total == pytest.approx(3.8)


def test_breakdown_as_dict_keys_are_strings():
    breakdown = EnergyBreakdown({EnergyCategory.SIGN: 1.0})
    assert breakdown.as_dict() == {"sign": 1.0}

