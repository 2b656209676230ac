"""Property-based tests for every topology builder and for
fault-composition window edge cases.

The topology properties pin down exactly what the scenario matrix relies
on when it treats topology as an axis: node/edge counts, in/out degrees,
strong connectivity, and bit-for-bit determinism under a fixed seed.  The
fault-composition properties drive randomly interleaved windows through a
real simulator and assert the shared refcounted state always converges
back to the base configuration.
"""

from hypothesis import given, settings, strategies as st

from repro.net.topology import (
    fully_connected_topology,
    random_kcast_topology,
    ring_kcast_topology,
    star_topology,
    unicast_ring_topology,
)
from repro.sim.rng import SeededRNG
from repro.testkit.faults import FaultSchedule, PartitionWindow, RelayDropWindow
from tests.conftest import make_network


@st.composite
def ring_params(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    return n, k


@st.composite
def random_kcast_params(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    k = draw(st.integers(min_value=1, max_value=n - 2))
    edges = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, k, edges, seed


# ------------------------------------------------------------------ builders
@given(ring_params())
@settings(max_examples=40, deadline=None)
def test_ring_kcast_counts_degrees_connectivity(params):
    n, k = params
    graph = ring_kcast_topology(n, k)
    assert len(graph.nodes) == n
    assert len(graph.edges) == n
    for node in graph.nodes:
        assert graph.d_out(node) == k
        assert graph.d_in(node) == k
        assert len(graph.out_edges(node)) == 1
    assert graph.is_strongly_connected()


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=20, deadline=None)
def test_fully_connected_counts_degrees_connectivity(n):
    graph = fully_connected_topology(n)
    assert len(graph.nodes) == n
    assert len(graph.edges) == n
    for node in graph.nodes:
        assert graph.d_out(node) == n - 1
        assert graph.d_in(node) == n - 1
    assert graph.is_strongly_connected()
    assert graph.diameter() == 1


@given(ring_params())
@settings(max_examples=40, deadline=None)
def test_unicast_ring_counts_degrees_connectivity(params):
    n, d = params
    graph = unicast_ring_topology(n, d)
    assert len(graph.edges) == n * d
    assert all(edge.degree == 1 for edge in graph.edges)
    for node in graph.nodes:
        assert graph.d_out(node) == d
        assert graph.d_in(node) == d
    assert graph.is_strongly_connected()


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=11))
@settings(max_examples=40, deadline=None)
def test_star_counts_degrees_connectivity(n, center):
    center = center % n
    graph = star_topology(n, center=center)
    assert len(graph.nodes) == n
    assert len(graph.edges) == n  # one hub multicast + n-1 leaf unicasts
    assert graph.d_out(center) == n - 1
    assert graph.d_in(center) == n - 1
    for leaf in graph.nodes:
        if leaf != center:
            assert graph.out_neighbors(leaf) == {center}
    assert graph.is_strongly_connected()
    if n > 2:
        assert graph.diameter() == 2


@given(random_kcast_params())
@settings(max_examples=25, deadline=None)
def test_random_kcast_provisioning_connectivity_determinism(params):
    n, k, edges_per_node, seed = params
    from math import comb

    if edges_per_node > comb(n - 1, k):
        return  # unsatisfiable by construction; covered by the ValueError test
    try:
        graph = random_kcast_topology(n, k, edges_per_node=edges_per_node, rng=SeededRNG(seed))
    except RuntimeError:
        # Sparse configurations (e.g. k=1 functional graphs) may exhaust the
        # bounded connectivity retries; giving up loudly is the documented
        # behaviour — silent under-provisioning is what must never happen.
        return
    assert len(graph.nodes) == n
    assert len(graph.edges) == n * edges_per_node
    for node in graph.nodes:
        out = graph.out_edges(node)
        assert len(out) == edges_per_node
        assert len({e.receivers for e in out}) == edges_per_node
        assert all(e.degree == k for e in out)
    assert graph.is_strongly_connected()
    # Bit-for-bit determinism under the same seed.
    again = random_kcast_topology(n, k, edges_per_node=edges_per_node, rng=SeededRNG(seed))
    assert [e.receivers for e in graph.edges] == [e.receivers for e in again.edges]


# ------------------------------------------------- fault-composition windows
@st.composite
def window_sets(draw):
    """Up to four windows on one node, arbitrarily overlapping,
    simultaneous-boundary cases included.  Lengths start at 1: zero-length
    windows are rejected at construction (see
    ``test_zero_length_windows_are_rejected_at_construction``)."""
    count = draw(st.integers(min_value=1, max_value=4))
    windows = []
    for _ in range(count):
        start = draw(st.integers(min_value=0, max_value=8))
        length = draw(st.integers(min_value=1, max_value=8))
        windows.append((float(start), float(start + length)))
    return windows


@given(window_sets())
@settings(max_examples=30, deadline=None)
def test_interleaved_drop_windows_always_converge(windows):
    """However drop windows interleave, denial holds exactly while at least
    one window is open, and the node's denial depth converges to zero."""
    sim, topology, ledger, network = make_network()
    schedule = FaultSchedule(
        tuple(RelayDropWindow(2, start, end) for start, end in windows)
    )
    schedule.install(sim, network, {})
    horizon = max(end for _, end in windows) + 1.0
    probe = min(
        (s + 0.5 for s, e in windows if e > s + 0.5),
        default=None,
    )
    if probe is not None:
        sim.run_until(probe, max_events=1_000_000)
        assert network.relay_denied(2)
    sim.run_until(horizon, max_events=1_000_000)
    assert not network.relay_denied(2)


@given(window_sets())
@settings(max_examples=30, deadline=None)
def test_interleaved_partition_windows_always_converge(windows):
    sim, topology, ledger, network = make_network()
    schedule = FaultSchedule(
        tuple(PartitionWindow(3, start, end) for start, end in windows)
    )
    schedule.install(sim, network, {})
    horizon = max(end for _, end in windows) + 1.0
    probe = min(
        (s + 0.5 for s, e in windows if e > s + 0.5),
        default=None,
    )
    if probe is not None:
        sim.run_until(probe, max_events=1_000_000)
        assert 3 in network._partition
    sim.run_until(horizon, max_events=1_000_000)
    assert 3 not in network._partition


@given(window_sets())
@settings(max_examples=30, deadline=None)
def test_windows_over_byzantine_denial_always_restore_it(windows):
    """Any interleaving of drop windows on a permanently-denying node must
    leave the permanent denial in place afterwards."""
    sim, topology, ledger, network = make_network()
    network.deny_relay(2)
    schedule = FaultSchedule(
        tuple(RelayDropWindow(2, start, end) for start, end in windows)
    )
    schedule.install(sim, network, {})
    sim.run_until(max(end for _, end in windows) + 1.0, max_events=1_000_000)
    assert network._relay_denied[2] == 1
