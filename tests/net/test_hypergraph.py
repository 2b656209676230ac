"""Unit tests for the hypergraph model (Appendix A)."""

import pytest

from repro.net.hypergraph import HyperEdge, Hypergraph
from repro.net.topology import ring_kcast_topology


def make_triangle():
    """Three nodes, each multicasting to the other two."""
    nodes = [0, 1, 2]
    edges = [HyperEdge.make(i, [j for j in nodes if j != i]) for i in nodes]
    return Hypergraph(nodes=nodes, edges=edges)


def test_hyperedge_rejects_self_loop():
    with pytest.raises(ValueError):
        HyperEdge.make(0, [0, 1])


def test_hyperedge_rejects_empty_receivers():
    with pytest.raises(ValueError):
        HyperEdge.make(0, [])


def test_hypergraph_rejects_unknown_endpoints():
    with pytest.raises(ValueError):
        Hypergraph(nodes=[0, 1], edges=[HyperEdge.make(0, [2])])
    with pytest.raises(ValueError):
        Hypergraph(nodes=[0, 1], edges=[HyperEdge.make(5, [1])])


def test_hypergraph_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        Hypergraph(nodes=[0, 0, 1])


def test_degrees_on_triangle():
    graph = make_triangle()
    for node in graph.nodes:
        assert graph.d_out(node) == 2
        assert graph.d_in(node) == 2
    assert graph.k == 2
    assert graph.capital_d_in == 2
    assert graph.capital_d_out == 1


def test_ring_kcast_degrees():
    graph = ring_kcast_topology(7, 3)
    for node in graph.nodes:
        assert graph.d_out(node) == 3
        assert graph.d_in(node) == 3
        assert len(graph.out_edges(node)) == 1
        assert len(graph.in_edges(node)) == 3
    assert graph.capital_d_out == 1
    assert graph.capital_d_in == 3
    assert graph.k == 3


def test_out_and_in_neighbors_ring():
    graph = ring_kcast_topology(5, 2)
    assert graph.out_neighbors(0) == {1, 2}
    assert graph.in_neighbors(0) == {3, 4}


def test_strong_connectivity_of_ring():
    graph = ring_kcast_topology(6, 2)
    assert graph.is_strongly_connected()
    assert graph.diameter() == 3


def test_connectivity_after_node_removal():
    graph = ring_kcast_topology(6, 2)
    # Removing one node (f = 1 < k = 2) cannot partition the ring.
    assert graph.is_strongly_connected(exclude=[0])
    # Removing two adjacent nodes (f = 2 = k) can: node 5 loses both of its
    # receivers, which is exactly the Lemma A.5 boundary.
    assert not graph.is_strongly_connected(exclude=[0, 1])
    # A k = 3 ring of 7 survives two adjacent removals (f = 2 < k = 3).
    wider = ring_kcast_topology(7, 3)
    assert wider.is_strongly_connected(exclude=[0, 1])


def test_fault_bound_lemma_a5():
    graph = ring_kcast_topology(7, 3)
    # f < min(d_in, d_out) = 3, so the largest tolerable f is 2.
    assert graph.max_faults_necessary_condition() == 2
    assert graph.satisfies_fault_bound(2)
    assert not graph.satisfies_fault_bound(3)


def test_fault_bound_lemma_a6():
    graph = ring_kcast_topology(7, 3)
    # f < k * min(D_in, D_out) = 3 * 1.
    assert graph.max_faults_kcast_condition() == 2


def test_partition_resistance_exhaustive():
    graph = ring_kcast_topology(7, 3)
    assert graph.is_partition_resistant(2)
    # Removing 3 specific consecutive nodes disconnects a k=3 ring of 7.
    assert not graph.is_partition_resistant(3)


def test_independent_edges_detects_redundant_cover():
    nodes = [0, 1, 2, 3]
    edges = [
        HyperEdge.make(0, [1, 2]),
        HyperEdge.make(0, [2, 3]),
        HyperEdge.make(0, [1, 3]),  # covered by the union of the other two
        HyperEdge.make(1, [0]),
        HyperEdge.make(2, [0]),
        HyperEdge.make(3, [0]),
    ]
    graph = Hypergraph(nodes=nodes, edges=edges)
    assert not graph.has_independent_edges()


def test_independent_edges_accepts_ring():
    assert ring_kcast_topology(7, 3).has_independent_edges()


def test_diameter_requires_strong_connectivity():
    nodes = [0, 1, 2]
    edges = [HyperEdge.make(0, [1]), HyperEdge.make(1, [2])]
    graph = Hypergraph(nodes=nodes, edges=edges)
    with pytest.raises(ValueError):
        graph.diameter()


def test_partition_resistance_f_zero_is_connectivity():
    graph = ring_kcast_topology(5, 1)
    assert graph.is_partition_resistant(0)
    assert not graph.is_partition_resistant(1)
