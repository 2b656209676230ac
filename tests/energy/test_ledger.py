"""Unit tests for the cluster energy ledger."""

import pytest

from repro.energy.ledger import ClusterEnergyLedger
from repro.energy.meter import EnergyCategory


def make_ledger():
    ledger = ClusterEnergyLedger(range(4))
    ledger.meter(0).charge(EnergyCategory.SIGN, 0.4)
    ledger.meter(0).charge(EnergyCategory.TRANSMIT, 0.1)
    ledger.meter(1).charge(EnergyCategory.RECEIVE, 0.2)
    ledger.meter(2).charge(EnergyCategory.RECEIVE, 0.3)
    ledger.meter(3).charge(EnergyCategory.VERIFY, 0.05)
    return ledger


def test_total_and_exclusion():
    ledger = make_ledger()
    assert ledger.total_joules() == pytest.approx(1.05)
    assert ledger.combined_breakdown(exclude=[0]).total == pytest.approx(0.55)


def test_per_node_totals():
    ledger = make_ledger()
    per_node = ledger.per_node_joules()
    assert per_node[0] == pytest.approx(0.5)
    assert per_node[3] == pytest.approx(0.05)


def test_combined_breakdown():
    ledger = make_ledger()
    combined = ledger.combined_breakdown()
    assert combined.get(EnergyCategory.RECEIVE) == pytest.approx(0.5)
    assert combined.get(EnergyCategory.SIGN) == pytest.approx(0.4)


def test_report_separates_leader_and_faulty():
    ledger = make_ledger()
    report = ledger.report(leader=0, faulty=[3])
    assert report.leader_joules == pytest.approx(0.5)
    assert report.correct_total_joules == pytest.approx(1.0)
    assert report.total_joules == pytest.approx(1.05)
    assert report.mean_replica_joules == pytest.approx((0.2 + 0.3) / 2)


def test_meter_created_lazily_for_new_node():
    ledger = ClusterEnergyLedger([0])
    meter = ledger.meter(7)
    assert meter.node_id == 7
    assert 7 in ledger.meters
