"""Unit tests for topology builders."""

import pytest

from repro.net.topology import (
    fully_connected_topology,
    random_kcast_topology,
    ring_kcast_topology,
    star_topology,
    unicast_ring_topology,
)
from repro.sim.rng import SeededRNG


def test_ring_kcast_structure():
    graph = ring_kcast_topology(10, 4)
    assert len(graph.nodes) == 10
    assert len(graph.edges) == 10
    assert graph.out_neighbors(9) == {0, 1, 2, 3}


def test_ring_kcast_invalid_parameters():
    with pytest.raises(ValueError):
        ring_kcast_topology(1, 1)
    with pytest.raises(ValueError):
        ring_kcast_topology(5, 0)
    with pytest.raises(ValueError):
        ring_kcast_topology(5, 5)


def test_fully_connected_every_pair_reachable_one_hop():
    graph = fully_connected_topology(6)
    for node in graph.nodes:
        assert graph.out_neighbors(node) == set(graph.nodes) - {node}
    assert graph.diameter() == 1


def test_unicast_ring_has_singleton_edges():
    graph = unicast_ring_topology(6, 2)
    assert all(edge.degree == 1 for edge in graph.edges)
    assert len(graph.edges) == 12
    assert graph.d_out(0) == 2


def test_star_topology_structure():
    graph = star_topology(5, center=4)
    assert graph.out_neighbors(4) == {0, 1, 2, 3}
    for leaf in range(4):
        assert graph.out_neighbors(leaf) == {4}
    assert graph.is_strongly_connected()


def test_star_topology_invalid_center():
    with pytest.raises(ValueError):
        star_topology(4, center=9)


def test_random_kcast_topology_is_connected_and_deterministic():
    a = random_kcast_topology(8, 3, rng=SeededRNG(5))
    b = random_kcast_topology(8, 3, rng=SeededRNG(5))
    assert a.is_strongly_connected()
    assert [e.receivers for e in a.edges] == [e.receivers for e in b.edges]


def test_random_kcast_respects_k():
    graph = random_kcast_topology(9, 4, rng=SeededRNG(2))
    assert all(edge.degree == 4 for edge in graph.edges)


def test_random_kcast_never_under_provisions_edges():
    """Regression: duplicate sampled receiver sets used to be silently
    skipped, leaving nodes with fewer than edges_per_node out-edges.  With
    n=4, k=1 only three distinct receiver sets exist per node, so duplicate
    samples are near-certain across seeds; every node must still end up
    with exactly the requested number of distinct edges."""
    for seed in range(10):
        graph = random_kcast_topology(4, 1, edges_per_node=3, rng=SeededRNG(seed))
        for node in graph.nodes:
            edges = graph.out_edges(node)
            assert len(edges) == 3, f"seed {seed}: node {node} under-provisioned"
            assert len({e.receivers for e in edges}) == 3


def test_random_kcast_unsatisfiable_request_raises():
    # Only comb(4, 4) = 1 distinct receiver set exists for n=5, k=4.
    with pytest.raises(ValueError, match="unsatisfiable"):
        random_kcast_topology(5, 4, SeededRNG(0), edges_per_node=2)
    with pytest.raises(ValueError):
        random_kcast_topology(5, 2, SeededRNG(0), edges_per_node=0)
