"""Differential tests: the native graph searches against networkx.

``Hypergraph.is_strongly_connected`` is a breadth-first search and
``Hypergraph.diameter`` an all-sources bitset expansion over the
hypergraph's own edge data; networkx, on the ``to_digraph()`` export, is the
reference they must agree with — on every topology family the runner
builds, with and without excluded nodes.  The diameter is also checked
against one breadth-first search per source, the definition it replaces.
"""

import networkx as nx
import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.net.hypergraph import HyperEdge, Hypergraph, _bfs_depths
from repro.net.topology import random_kcast_topology, ring_kcast_topology, star_topology
from repro.sim.rng import SeededRNG


@st.composite
def hypergraphs(draw):
    """Ring, star, seeded random k-cast and unconstrained (often disconnected) graphs."""
    family = draw(st.sampled_from(["ring", "star", "random-kcast", "arbitrary"]))
    n = draw(st.integers(min_value=2, max_value=12))
    if family == "ring":
        return ring_kcast_topology(n, draw(st.integers(min_value=1, max_value=n - 1)))
    if family == "star":
        return star_topology(n, center=draw(st.integers(min_value=0, max_value=n - 1)))
    if family == "random-kcast":
        try:
            return random_kcast_topology(
                n,
                draw(st.integers(min_value=1, max_value=n - 1)),
                edges_per_node=draw(st.integers(min_value=1, max_value=2)),
                rng=SeededRNG(draw(st.integers(min_value=0, max_value=2**32))),
            )
        except (ValueError, RuntimeError):
            # More edges than distinct receiver sets, or no strongly
            # connected sample within the builder's attempt budget.
            reject()
    nodes = list(range(n))
    edges = []
    for sender in draw(st.lists(st.sampled_from(nodes), max_size=2 * n)):
        others = [x for x in nodes if x != sender]
        receivers = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        edges.append(HyperEdge.make(sender, receivers))
    return Hypergraph(nodes=nodes, edges=edges)


@st.composite
def hypergraphs_with_exclusions(draw):
    graph = draw(hypergraphs())
    # Up to every node: the <= 1 survivor cases are part of the contract.
    excluded = draw(st.lists(st.sampled_from(graph.nodes), unique=True, max_size=len(graph.nodes)))
    return graph, excluded


def reference_strongly_connected(graph, exclude=None):
    digraph = graph.to_digraph(exclude=exclude)
    return digraph.number_of_nodes() <= 1 or nx.is_strongly_connected(digraph)


@given(hypergraphs_with_exclusions())
@settings(max_examples=300, deadline=None)
def test_strong_connectivity_matches_networkx(case):
    graph, excluded = case
    assert graph.is_strongly_connected(exclude=excluded) == reference_strongly_connected(
        graph, excluded
    )
    assert graph.is_strongly_connected() == reference_strongly_connected(graph)


def per_source_bfs_diameter(graph):
    """The largest hop distance over one breadth-first search per source."""
    successors = graph._successors()
    diameter = 0
    for source in successors:
        depths = _bfs_depths(successors, source)
        if len(depths) < len(successors):
            raise ValueError("not strongly connected")
        diameter = max(diameter, max(depths.values()))
    return diameter


@st.composite
def strongly_connected_hypergraphs(draw):
    """Rings and seeded random k-casts of up to 80 nodes, all strongly connected."""
    n = draw(st.integers(min_value=2, max_value=80))
    k = draw(st.integers(min_value=1, max_value=min(n - 1, 6)))
    if draw(st.booleans()):
        return ring_kcast_topology(n, k)
    try:
        return random_kcast_topology(
            n,
            k,
            edges_per_node=draw(st.integers(min_value=1, max_value=2)),
            rng=SeededRNG(draw(st.integers(min_value=0, max_value=2**32))),
        )
    except (ValueError, RuntimeError):
        reject()


@given(hypergraphs())
@settings(max_examples=300, deadline=None)
def test_diameter_matches_networkx(graph):
    if reference_strongly_connected(graph):
        expected = nx.diameter(graph.to_digraph()) if len(graph.nodes) > 1 else 0
        assert graph.diameter() == expected == per_source_bfs_diameter(graph)
    else:
        with pytest.raises(ValueError, match="not strongly connected"):
            graph.diameter()
        with pytest.raises(ValueError):
            per_source_bfs_diameter(graph)


@given(strongly_connected_hypergraphs())
@settings(max_examples=100, deadline=None)
def test_diameter_matches_per_source_search_on_large_graphs(graph):
    assert graph.diameter() == per_source_bfs_diameter(graph) == nx.diameter(graph.to_digraph())


def test_degenerate_graphs():
    assert Hypergraph(nodes=[]).diameter() == 0
    assert Hypergraph(nodes=[]).is_strongly_connected()
    assert Hypergraph(nodes=[3]).diameter() == 0
    assert Hypergraph(nodes=[3]).is_strongly_connected()
    two = Hypergraph(nodes=[0, 1], edges=[HyperEdge.make(0, [1])])
    assert not two.is_strongly_connected()
    assert two.is_strongly_connected(exclude=[1])
    assert two.is_strongly_connected(exclude=[0, 1])
    with pytest.raises(ValueError, match="not strongly connected"):
        two.diameter()
