"""Flood-state garbage collection: bounded dedup memory on long runs."""

from repro.sim.process import Process
from tests.conftest import make_network


class Sink(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.messages = []

    def on_message(self, sender, message):
        self.messages.append((sender, message))


def build(n=7, k=2, seed=3):
    sim, topology, ledger, network = make_network(n, k, seed)
    sinks = {pid: Sink(sim, pid) for pid in topology.nodes}
    for sink in sinks.values():
        network.register(sink)
    return sim, topology, ledger, network, sinks


def test_dedup_state_empty_after_run_until_idle():
    sim, _, _, network, sinks = build()
    for i in range(10):
        network.broadcast(i % 7, f"msg-{i}")
    sim.run_until_idle(max_events=1_000_000)
    assert network.live_floods == 0
    # GC never cost a delivery: every node saw every flood exactly once.
    for sink in sinks.values():
        assert len(sink.messages) == 10


def test_multicast_state_retired_after_quiescence():
    sim, _, _, network, _ = build()
    network.multicast_neighbors(0, "hi")
    sim.run_until_idle(max_events=1_000_000)
    assert network.live_floods == 0


def test_gc_preserves_stats_and_deliveries():
    """Retiring dedup state costs nothing observable.

    The expected tuple was recorded at commit 701fc1f, where a run with
    flood GC switched off (every flood's state retained to the end) and a
    run with it on produced exactly these values.
    """
    sim, _, ledger, network, sinks = build(seed=13)
    for i in range(6):
        network.broadcast(i % 7, "payload-" + "x" * 64)
    sim.run_until_idle(max_events=1_000_000)
    stats = network.stats
    assert (
        stats.physical_transmissions,
        stats.physical_bytes,
        stats.deliveries,
        dict(stats.per_node_transmissions),
        {pid: meter.total_joules.hex() for pid, meter in ledger.meters.items()},
    ) == (
        42,
        3024,
        42,
        {pid: 6 for pid in range(7)},
        {pid: "0x1.d197a24894c45p-2" for pid in range(7)},
    )


def test_gc_with_isolated_receiver_still_retires():
    sim, _, _, network, sinks = build()
    network.isolate(3)
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    assert network.live_floods == 0
    assert sinks[3].messages == []


def test_gc_with_non_relaying_byzantine_node_still_retires():
    sim, _, _, network, sinks = build()
    network.deny_relay(1)
    network.broadcast(0, "m")
    sim.run_until_idle(max_events=1_000_000)
    assert network.live_floods == 0
    delivered = [pid for pid, sink in sinks.items() if sink.messages]
    assert sorted(delivered) == list(range(7))


def test_interleaved_floods_retire_independently():
    sim, _, _, network, _ = build()
    network.broadcast(0, "a")
    # Run only the first hop, then start a second flood mid-propagation.
    sim.run_until(0.5, max_events=1_000_000)
    network.broadcast(1, "b")
    sim.run_until_idle(max_events=1_000_000)
    assert network.live_floods == 0
