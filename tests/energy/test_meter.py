"""Unit tests for per-node energy metering."""

import inspect

import pytest

from repro.energy.meter import EnergyBreakdown, EnergyCategory, EnergyMeter, UnitTable, price


def test_charges_accumulate_per_category():
    meter = EnergyMeter(0, UnitTable())
    meter.charge(EnergyCategory.TRANSMIT, 0.5)
    meter.charge(EnergyCategory.TRANSMIT, 0.25)
    meter.charge(EnergyCategory.VERIFY, 0.1)
    assert meter.breakdown.get(EnergyCategory.TRANSMIT) == pytest.approx(0.75)
    assert meter.breakdown.get(EnergyCategory.VERIFY) == pytest.approx(0.1)
    assert meter.total_joules == pytest.approx(0.85)


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        EnergyMeter(0, UnitTable()).charge(EnergyCategory.TRANSMIT, -0.1)


def test_charge_takes_a_category_a_unit_cost_and_a_count():
    """The meter is a counter: no timestamp, no per-charge annotation."""
    assert list(inspect.signature(EnergyMeter.charge).parameters) == [
        "self",
        "category",
        "unit_j",
        "times",
    ]
    meter = EnergyMeter(0, UnitTable())
    with pytest.raises(ValueError, match="negative"):
        meter.charge(EnergyCategory.SIGN, -1e-9, 2)
    assert meter.counts == {}
    assert meter.total_joules == 0.0


def test_meter_state_is_integer_counts_per_category_and_unit_cost():
    meter = EnergyMeter(0, UnitTable())
    meter.charge(EnergyCategory.SIGN, 0.3, 2)
    meter.charge(EnergyCategory.SIGN, 0.3, 2)
    meter.charge(EnergyCategory.VERIFY, 0.1, 5)
    meter.charge(EnergyCategory.VERIFY, 0.2)
    assert dict(meter.counts) == {
        (EnergyCategory.SIGN, 0.3): 4,
        (EnergyCategory.VERIFY, 0.1): 5,
        (EnergyCategory.VERIFY, 0.2): 1,
    }
    # The meter's only counting state: one integer per interned slot.
    assert sorted(meter.tally) == [0, 1, 2]
    assert all(type(times) is int for times in meter.tally.values())
    assert [meter.units.keys[slot] for slot in meter.tally] == list(meter.counts)
    assert meter.breakdown.get(EnergyCategory.SIGN) == 4 * 0.3
    assert meter.breakdown.get(EnergyCategory.VERIFY) == 5 * 0.1 + 1 * 0.2


def test_breakdown_groups():
    breakdown = EnergyBreakdown(
        price(
            [
                {
                    (EnergyCategory.TRANSMIT, 1.0): 1,
                    (EnergyCategory.RECEIVE, 0.5): 4,
                    (EnergyCategory.SIGN, 0.25): 2,
                },
                {(EnergyCategory.VERIFY, 0.125): 2, (EnergyCategory.HASH, 0.05): 1},
            ]
        )
    )
    assert breakdown.cryptography == pytest.approx(0.8)
    assert breakdown.total == pytest.approx(3.8)


def test_breakdown_as_dict_keys_are_strings():
    breakdown = EnergyBreakdown(price([{(EnergyCategory.SIGN, 0.5): 2}]))
    assert breakdown.as_dict() == {"sign": 1.0}


def test_price_adds_counts_before_pricing_so_grouping_does_not_matter():
    unit = 0.1
    a = {(EnergyCategory.TRANSMIT, unit): 3, (EnergyCategory.HASH, 0.7): 1}
    b = {(EnergyCategory.TRANSMIT, unit): 4}
    merged = {(EnergyCategory.TRANSMIT, unit): 7, (EnergyCategory.HASH, 0.7): 1}
    assert price([a, b]) == price([b, a]) == price([merged])
    assert price([a, b])[EnergyCategory.TRANSMIT] == 7 * unit
    # Categories come out in sorted order, whatever order they were charged in.
    assert list(price([a, b])) == [EnergyCategory.HASH, EnergyCategory.TRANSMIT]
