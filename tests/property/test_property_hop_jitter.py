"""Property: the network's hop jitter is ``Random.uniform(0.5, 1.0)``, bit for bit.

The flood path draws the jitter factor from the stream's ``random()`` and
scales it itself, ``0.5 + 0.5 * random()``, which is the expression
``uniform(0.5, 1.0)`` evaluates.  Every baseline fingerprint rests on the
two being equal under ``==``, on the single-hop path (``_hop_latency``,
which unicasts use) and on the flood path (``_transmit``) alike.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.energy.ledger import ClusterEnergyLedger
from repro.net.network import SimulatedNetwork
from repro.net.topology import ring_kcast_topology
from repro.sim.process import Process
from repro.sim.rng import SeededRNG
from repro.sim.scheduler import Simulator

seeds = st.integers(min_value=0, max_value=2**64 - 1)
hop_delays = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


class Quiet(Process):
    def on_message(self, sender, message):
        pass


def network_for(seed, hop_delay, n=6, k=2):
    sim = Simulator()
    topology = ring_kcast_topology(n, k)
    ledger = ClusterEnergyLedger(topology.nodes)
    network = SimulatedNetwork(sim, topology, ledger, rng=SeededRNG(seed), hop_delay=hop_delay)
    for pid in topology.nodes:
        network.register(Quiet(sim, pid))
    return sim, network


def reference_jitter(seed, hop_delay, count):
    stream = random.Random(seed)
    return [hop_delay * stream.uniform(0.5, 1.0) for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(seed=seeds, hop_delay=hop_delays, count=st.integers(min_value=1, max_value=50))
def test_hop_latency_is_the_uniform_draw(seed, hop_delay, count):
    _, network = network_for(seed, hop_delay)
    assert [network._hop_latency() for _ in range(count)] == reference_jitter(
        seed, hop_delay, count
    )


@settings(max_examples=50, deadline=None)
@given(seed=seeds, hop_delay=hop_delays, floods=st.integers(min_value=1, max_value=3))
def test_flood_transmissions_draw_the_uniform_sequence(seed, hop_delay, floods):
    """Every flood transmission is scheduled ``hop_delay * uniform(0.5, 1.0)``
    ahead, drawn in transmission order from the network's stream."""
    sim, network = network_for(seed, hop_delay)
    delays = []
    schedule = sim.schedule

    def recording(delay, callback, label, args=()):
        delays.append(delay)
        return schedule(delay, callback, label, args)

    sim.schedule = recording
    for origin in range(floods):
        network.broadcast(origin, f"m{origin}")
        sim.run(max_events=10_000)
    assert delays and delays == reference_jitter(seed, hop_delay, len(delays))
