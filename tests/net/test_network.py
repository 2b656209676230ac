"""Unit tests for the simulated flooding network."""

import pytest

from repro.energy.meter import EnergyCategory
from repro.eval.runner import DeploymentSpec
from repro.session.builder import compute_delta
from repro.sim.process import Process
from tests.conftest import make_network


class Sink(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.messages = []

    def on_message(self, sender, message):
        self.messages.append((sender, message, self.sim.now))


def build(n=5, k=2, seed=3):
    sim, topology, ledger, network = make_network(n, k, seed)
    sinks = {pid: Sink(sim, pid) for pid in topology.nodes}
    for sink in sinks.values():
        network.register(sink)
    return sim, topology, ledger, network, sinks


def test_broadcast_reaches_every_node_exactly_once():
    sim, _, _, network, sinks = build()
    network.broadcast(0, "hello")
    sim.run_until_idle(max_events=1_000_000)
    for pid, sink in sinks.items():
        assert len(sink.messages) == 1, pid
        assert sink.messages[0][0] == 0
        assert sink.messages[0][1] == "hello"


def test_broadcast_delivery_within_diameter_times_hop_delay():
    sim, topology, _, network, sinks = build(n=9, k=2)
    bound = topology.diameter() * network.hop_delay
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    for sink in sinks.values():
        assert sink.messages[0][2] <= bound + 1e-9


def test_broadcast_charges_transmit_and_receive_energy():
    sim, _, ledger, network, _ = build()
    network.broadcast(0, "x" * 100)
    sim.run_until_idle(max_events=1_000_000)
    for pid in range(5):
        meter = ledger.meter(pid)
        assert meter.breakdown.get(EnergyCategory.TRANSMIT) > 0
        assert meter.breakdown.get(EnergyCategory.RECEIVE) > 0


def test_non_relaying_byzantine_nodes_cannot_partition_below_fault_bound():
    # k=2 ring of 7 tolerates 1 non-relaying fault (f < k); the flood still
    # reaches everyone.
    sim, _, _, network, sinks = build(n=7, k=2)
    network.deny_relay(1)
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    delivered = [pid for pid, sink in sinks.items() if sink.messages]
    assert sorted(delivered) == list(range(7))


def test_origin_relay_policy_does_not_block_own_broadcast():
    sim, _, _, network, sinks = build(n=5, k=2)
    network.deny_relay(0)
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    assert all(sink.messages for sink in sinks.values())


def test_isolated_node_receives_nothing():
    sim, _, _, network, sinks = build(n=5, k=2)
    network.isolate(3)
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    assert sinks[3].messages == []


def test_reconnect_restores_delivery():
    sim, _, _, network, sinks = build(n=5, k=2)
    network.isolate(3)
    network.reconnect(3)
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    assert sinks[3].messages


def test_isolation_is_refcounted():
    """Regression: two overlapping isolations (e.g. overlapping partition
    windows) must both be undone before the node rejoins."""
    sim, _, _, network, sinks = build(n=5, k=2)
    network.isolate(3)
    network.isolate(3)
    network.reconnect(3)
    network.broadcast(0, "first")
    sim.run_until_idle(max_events=1_000_000)
    assert sinks[3].messages == [], "one reconnect must not lift two isolations"
    network.reconnect(3)
    network.broadcast(0, "second")
    sim.run_until_idle(max_events=1_000_000)
    assert [m[1] for m in sinks[3].messages] == ["second"]


def test_reconnect_without_isolation_is_a_noop():
    sim, _, _, network, sinks = build(n=5, k=2)
    with pytest.warns(RuntimeWarning, match="reconnect.*without a matching isolate"):
        network.reconnect(3)
    network.isolate(3)
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    assert sinks[3].messages == [], "a stray reconnect must not pre-cancel an isolation"


def test_unbalanced_reconnects_counted_but_warned_once():
    import warnings

    sim, _, _, network, _ = build(n=5, k=2)
    with pytest.warns(RuntimeWarning):
        network.reconnect(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise here
        network.reconnect(2)
        # A balanced pair is not unbalanced.
        network.isolate(4)
        network.reconnect(4)


def test_relay_denial_is_refcounted_and_restores_base_policy():
    """The base is a permanent denial (a Byzantine node's, never popped):
    two windows stacked on it pop back down to it, never through it."""
    sim, _, _, network, _ = build(n=5, k=2)
    network.deny_relay(2)  # the base
    network.deny_relay(2)
    network.deny_relay(2)
    assert network.relay_denied(2)
    network.allow_relay(2)
    assert network.relay_denied(2), "inner denial still active"
    network.allow_relay(2)
    assert network.relay_denied(2), "the base denial is restored, not clobbered"
    # With no base denial the node relays again once its window closes.
    network.deny_relay(4)
    network.allow_relay(4)
    assert not network.relay_denied(4)


def test_unbalanced_allow_relay_is_a_noop():
    sim, _, _, network, _ = build(n=5, k=2)
    network.allow_relay(2)
    assert not network.relay_denied(2)
    network.deny_relay(2)
    assert network.relay_denied(2), "a stray allow must not pre-cancel a denial"


def test_set_relay_policy_under_active_denial_updates_the_base():
    """A permanent denial pushed while a window is open (an adaptive strike
    landing mid-window) survives the window's close."""
    sim, _, _, network, sinks = build(n=5, k=2)
    network.deny_relay(2)  # the window opens
    network.deny_relay(2)  # the strike: never popped
    network.allow_relay(2)  # the window closes
    assert network.relay_denied(2)
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    assert network.stats.per_node_transmissions[2] == 0, "a denied node forwards nothing"
    assert all(sink.messages for sink in sinks.values())


@pytest.mark.parametrize(
    "kind, pop, active",
    [
        ("relay-deny", lambda net: net.allow_relay(3), lambda net: net.relay_denied(3)),
        ("partition", lambda net: net.reconnect(3), lambda net: net.is_partitioned(3)),
        ("impair-loss", lambda net: net.unimpair_node(3, "loss"), lambda net: False),
    ],
    ids=["allow_relay", "reconnect", "unimpair_node"],
)
def test_unbalanced_pops_change_nothing_and_report_nothing(kind, pop, active):
    """Each kind keeps its own unbalanced-pop rule — ``reconnect`` counts and
    warns once, the other two are silent — but none of them touches state,
    fires the fault observer or invalidates a compiled plan."""
    import warnings

    sim, _, _, network, _ = build(n=5, k=2)
    network.configure_impairment(None)  # a model with no overlay to pop
    seen = []
    network.fault_observer = lambda *transition: seen.append(transition)
    plan = network._plan_for(64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pop(network)
        pop(network)
    assert not active(network)
    assert seen == []
    assert network._plan_for(64) is plan
    counted = kind == "partition"
    assert [str(w.message)[:12] for w in caught] == (["reconnect(3)"] if counted else [])


def test_fault_observer_sees_only_the_outermost_edges():
    sim, _, _, network, _ = build(n=5, k=2)
    seen = []
    network.fault_observer = lambda *transition: seen.append(transition)
    pairs = ((network.deny_relay, network.allow_relay), (network.isolate, network.reconnect))
    for push, pop in pairs:
        push(1)
        push(1)
        pop(1)
        pop(1)
    assert seen == [
        (1, "relay-deny", True, 0.0),
        (1, "relay-deny", False, 0.0),
        (1, "partition", True, 0.0),
        (1, "partition", False, 0.0),
    ]


def test_unicast_delivers_and_charges_both_endpoints():
    sim, _, ledger, network, sinks = build()
    network.send(0, 3, "direct")
    sim.run_until_idle(max_events=1_000_000)
    assert sinks[3].messages == [(0, "direct", pytest.approx(sinks[3].messages[0][2]))]
    assert ledger.meter(0).breakdown.get(EnergyCategory.TRANSMIT) > 0
    assert ledger.meter(3).breakdown.get(EnergyCategory.RECEIVE) > 0
    assert network.stats.unicasts == 1


def test_unicast_to_unknown_destination_rejected():
    sim, _, _, network, _ = build()
    with pytest.raises(ValueError):
        network.send(0, 99, "x")


def test_broadcast_from_unregistered_process_rejected():
    sim, _, _, network, _ = build()
    with pytest.raises(ValueError):
        network.broadcast(99, "x")


def test_multicast_neighbors_is_single_hop():
    sim, topology, _, network, sinks = build(n=7, k=2)
    network.multicast_neighbors(0, "hi")
    sim.run_until_idle(max_events=1_000_000)
    delivered = {pid for pid, sink in sinks.items() if sink.messages}
    assert delivered == topology.out_neighbors(0)


def test_stats_count_transmissions_and_bytes():
    sim, _, _, network, _ = build(n=5, k=2)
    network.broadcast(0, "y" * 50)
    sim.run_until_idle(max_events=1_000_000)
    # Every node relays once in a flood.
    assert network.stats.physical_transmissions == 5
    assert network.stats.physical_bytes == 5 * 50
    assert network.stats.per_node_transmissions[0] == 1
    assert network.stats.per_node_bytes[0] == 50


def test_wire_size_uses_message_attribute():
    class Sized:
        wire_size_bytes = 321

    from repro.net.network import default_wire_size

    assert default_wire_size(Sized()) == 321
    assert default_wire_size("abcd") == 4


def test_duplicate_registration_rejected():
    sim, _, _, network, sinks = build()
    with pytest.raises(ValueError):
        network.register(sinks[0])


def test_recommended_delta_covers_observed_latency():
    """The Δ a session derives for this topology upper-bounds a real flood."""
    sim, topology, _, network, sinks = build(n=9, k=2)
    spec = DeploymentSpec(n=9, k=2, hop_delay=network.hop_delay)
    delta = compute_delta(spec, topology)
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    worst = max(sink.messages[0][2] for sink in sinks.values())
    assert worst <= delta
