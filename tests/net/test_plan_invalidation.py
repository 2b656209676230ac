"""Compiled dissemination plans: caching, invalidation, trace identity.

The plan compiler memoizes the per-hop flood path (out-edges, radio
costs, relay verdicts, partition-filtered receivers and their meters) per
(state epoch, wire size).  These tests pin the two properties the
optimization rides on:

* every mutation a per-hop re-read of the state would observe —
  deny/allow windows, partition isolate/heal — invalidates the compiled
  plan;
* runs driven through compiled plans are byte-identical to the path that
  re-queried that state on every hop, including when the mutation fires
  mid-flood-window.  That path is gone; its traces are pinned as
  fingerprints recorded while both existed and agreed.
"""

import pytest

from repro.energy.ledger import ClusterEnergyLedger
from repro.eval.runner import DeploymentSpec, run_protocol
from repro.net.network import SimulatedNetwork
from repro.net.topology import ring_kcast_topology
from repro.sim.rng import SeededRNG
from repro.sim.scheduler import Simulator
from repro.testkit.faults import drop_window, partition
from repro.testkit.trace import TraceRecorder
from tests.testkit.test_golden_fingerprints import GOLDEN, GOLDEN_WIFI_N9


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


# ----------------------------------------------------- trace byte-identity
def fingerprint(spec_kwargs):
    spec = DeploymentSpec(**spec_kwargs)
    result = run_protocol(spec, recorder=TraceRecorder())
    return result.trace.fingerprint()


BASE = dict(protocol="eesmr", n=5, f=1, k=2, target_height=3, seed=17)


#: case -> (fault schedule factory, fingerprint).  The fingerprints were
#: recorded at commit 701fc1f with the plan compiler switched off and on
#: (``fingerprint({**BASE, "fault_schedule": factory()})`` per setting; the
#: two agreed in every case).  The fault-free case is the seed's golden run.
#: Re-pinned with the golden fingerprints when batches (hence block hashes)
#: changed; the event schedules, energy and network counters did not move.
#: Re-pinned with them again when a k-cast's receivers began sharing one
#: event (``tests/testkit/test_per_receiver_expansion.py`` keeps the
#: previous values asserted).  Re-pinned once more when the blocks one EESMR
#: delivery accepts began sharing one commit-timer event (the same file's
#: ``PER_BLOCK_COMMIT`` keeps those values asserted).  Re-pinned with them
#: when energy became integer operation counts, priced when read.
UNCOMPILED = {
    "fault-free": (lambda: None, GOLDEN["eesmr"]),
    # Relay denial opening and lifting mid-run: each transition must
    # invalidate the plan exactly where a per-hop read of the relay-denial
    # table would see it.
    "relay-drop-window": (
        lambda: drop_window(3, start=1.0, end=8.0),
        "a47e711f82688c387c9590fe95b85837fc93d9a3b21642b3914ebc865259aae8",
    ),
    # Partition cut + heal mid-run: receiver filtering must follow.
    "partition-heal": (
        lambda: partition(4, start=2.0, heal=10.0),
        "0ee7187103f472b37293788108f6ecedb8465ecba86dbe11c475bd83300cc70f",
    ),
}


@pytest.mark.parametrize("case", list(UNCOMPILED))
def test_compiled_plans_byte_identical_to_uncompiled_path(case):
    fault_factory, uncompiled = UNCOMPILED[case]
    assert fingerprint({**BASE, "fault_schedule": fault_factory()}) == uncompiled


def test_compiled_plans_byte_identical_on_wifi_and_larger_n():
    kwargs = dict(
        protocol="eesmr", n=9, f=2, k=2, target_height=4, seed=99, medium="wifi"
    )
    assert fingerprint(kwargs) == GOLDEN_WIFI_N9
