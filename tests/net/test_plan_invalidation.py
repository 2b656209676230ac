"""Compiled dissemination plans: caching and invalidation.

The plan compiler memoizes the per-hop flood path (out-edges, radio
costs, relay verdicts, partition-filtered receivers and their meters) per
(state epoch, wire size).  Every mutation a per-hop re-read of the state
would observe — deny/allow windows, partition isolate/heal — must
invalidate the compiled plan.  Runs through compiled plans are
byte-identical to the path that re-queried that state on every hop, also
when a mutation fires mid-flood-window: ``tests/testkit/test_trace_pins.py``
pins such runs (``relay-drop-window``, ``partition-heal``), first recorded
while both paths existed and agreed.
"""

import pytest

from repro.energy.ledger import ClusterEnergyLedger
from repro.net.network import SimulatedNetwork
from repro.net.topology import ring_kcast_topology
from repro.sim.rng import SeededRNG
from repro.sim.scheduler import Simulator


def build_network(n: int = 6, k: int = 2, seed: int = 3) -> SimulatedNetwork:
    sim = Simulator()
    topology = ring_kcast_topology(n, k)
    ledger = ClusterEnergyLedger(topology.nodes)
    return SimulatedNetwork(sim, topology, ledger, rng=SeededRNG(seed))


# ------------------------------------------------------------ plan caching
def test_plan_is_cached_per_size_within_an_epoch():
    network = build_network()
    first = network._plan_for(128)
    assert network._plan_for(128) is first
    assert network._plan_for(256) is not first


@pytest.mark.parametrize(
    "mutate",
    [
        lambda net: net.deny_relay(2),
        lambda net: net.isolate(2),
    ],
    ids=["deny_relay", "isolate"],
)
def test_state_mutators_invalidate_the_plan(mutate):
    network = build_network()
    stale = network._plan_for(128)
    mutate(network)
    fresh = network._plan_for(128)
    assert fresh is not stale
    assert fresh.state_epoch > stale.state_epoch


def test_deny_and_allow_each_invalidate():
    network = build_network()
    baseline = network._plan_for(64)
    network.deny_relay(4)
    denied = network._plan_for(64)
    assert denied is not baseline
    relays, _tally, _edges = denied.nodes[4]
    assert relays is False
    network.allow_relay(4)
    healed = network._plan_for(64)
    assert healed is not denied
    relays, _tally, _edges = healed.nodes[4]
    assert relays is True


def test_partition_and_heal_each_invalidate():
    network = build_network()
    baseline = network._plan_for(64)
    assert 5 in baseline.nodes
    network.isolate(5)
    cut = network._plan_for(64)
    assert cut is not baseline
    assert 5 not in cut.nodes  # partitioned: neither relays nor receives
    for _relays, _tally, edges in cut.nodes.values():
        for _cost, receivers, tallies, _tx_slot, _rx_slot in edges:
            assert 5 not in receivers
            assert len(tallies) == len(receivers)
            for receiver, tally in zip(receivers, tallies):
                assert tally is network.ledger.meters[receiver].tally
    network.reconnect(5)
    healed = network._plan_for(64)
    assert healed is not cut
    assert 5 in healed.nodes
