"""Unit tests for the k-cast reliability model (Fig. 2a)."""

import pytest

from repro.radio.reliability import (
    DEFAULT_ADVERTISEMENT_LOSS,
    FOUR_NINES,
    AdvertisementLossModel,
)


def test_receiver_miss_probability_decreases_with_redundancy():
    model = AdvertisementLossModel()
    misses = [model.receiver_miss_probability(r) for r in range(1, 6)]
    assert all(a > b for a, b in zip(misses, misses[1:]))
    assert misses[0] == pytest.approx(DEFAULT_ADVERTISEMENT_LOSS)
    assert misses[1] == pytest.approx(DEFAULT_ADVERTISEMENT_LOSS**2)


def test_kcast_failure_increases_with_k():
    model = AdvertisementLossModel()
    assert model.kcast_failure_probability(1, 3) < model.kcast_failure_probability(7, 3)


def test_kcast_failure_decreases_exponentially_with_redundancy():
    """The paper observes exponentially decreasing failure rates."""
    model = AdvertisementLossModel()
    failures = [model.kcast_failure_probability(7, r) for r in range(1, 9)]
    ratios = [failures[i + 1] / failures[i] for i in range(len(failures) - 1)]
    assert all(r < 0.5 for r in ratios[1:])


def test_redundancy_for_four_nines_matches_calibration():
    model = AdvertisementLossModel()
    redundancy_k7 = model.redundancy_for_reliability(7)
    assert redundancy_k7 == 8
    assert model.kcast_reliability(7, redundancy_k7) >= FOUR_NINES
    assert model.kcast_reliability(7, redundancy_k7 - 1) < FOUR_NINES
    # Fewer receivers need less redundancy.
    assert model.redundancy_for_reliability(1) <= redundancy_k7


def test_redundancy_for_reliability_monotone_in_k():
    model = AdvertisementLossModel()
    values = [model.redundancy_for_reliability(k) for k in (1, 3, 5, 7)]
    assert values == sorted(values)


def test_invalid_arguments_rejected():
    model = AdvertisementLossModel()
    with pytest.raises(ValueError):
        model.kcast_failure_probability(0, 1)
    with pytest.raises(ValueError):
        model.receiver_miss_probability(0)


def test_tradeoff_curve_energy_grows_linearly():
    model = AdvertisementLossModel()
    curve = model.tradeoff_curve(7, 0.6625, 1.2475, 8)
    assert len(curve) == 8
    assert curve[0].sender_energy_mj == pytest.approx(0.6625)
    assert curve[7].sender_energy_mj == pytest.approx(8 * 0.6625)
    assert curve[7].failure_probability < curve[0].failure_probability
    # The four-nines point: ~5.3 mJ at the sender, as measured in the paper.
    assert curve[7].reliability >= FOUR_NINES
    assert curve[7].sender_energy_mj == pytest.approx(5.3, rel=0.01)


def test_reliability_point_properties():
    model = AdvertisementLossModel()
    point = model.tradeoff_curve(3, 1.0, 2.0, 1)[0]
    assert point.failure_percent == pytest.approx(point.failure_probability * 100)
    assert point.reliability == pytest.approx(1 - point.failure_probability)
