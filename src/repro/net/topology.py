"""Topology builders for the hypergraph network model.

The paper's evaluation (Section 5.6) places nodes on a ring where every
node ``p_i`` k-casts to its next ``k`` neighbours and receives from its
previous ``k`` neighbours (``D_out = 1``, ``D_in = k``).  This module
provides that topology plus the other shapes used by examples and tests:
fully connected graphs, unicast rings, stars (for the trusted-baseline
deployment) and random k-cast graphs.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from repro.net.hypergraph import HyperEdge, Hypergraph
from repro.sim.rng import SeededRNG


def ring_kcast_topology(n: int, k: int) -> Hypergraph:
    """The paper's experimental topology.

    Every node ``p_i`` has one outgoing k-cast reaching
    ``p_{i+1 mod n}, ..., p_{i+k mod n}``; consequently each node receives
    from its ``k`` predecessors (``D_out = 1``, ``D_in = k``, in/out degree
    ``k``).  The fault bound of Lemma A.5 is therefore ``f < k``.
    """
    _validate_n_k(n, k)
    nodes = list(range(n))
    edges = [
        HyperEdge.make(i, [(i + offset) % n for offset in range(1, k + 1)])
        for i in range(n)
    ]
    return Hypergraph(nodes=nodes, edges=edges)


def fully_connected_topology(n: int) -> Hypergraph:
    """Every node has one (n-1)-cast to all other nodes.

    This models the paper's base system model ("static fully-connected
    point-to-point communication graph") when the wireless medium lets a
    single transmission reach everyone.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    nodes = list(range(n))
    edges = [
        HyperEdge.make(i, [j for j in nodes if j != i])
        for i in nodes
    ]
    return Hypergraph(nodes=nodes, edges=edges)


def unicast_ring_topology(n: int, d: int) -> Hypergraph:
    """A ring where each node has ``d`` *unicast* edges to its successors.

    Used by the unicast-vs-multicast ablation: same connectivity as
    :func:`ring_kcast_topology` but every transmission reaches one node.
    """
    _validate_n_k(n, d)
    nodes = list(range(n))
    edges = []
    for i in nodes:
        for offset in range(1, d + 1):
            edges.append(HyperEdge.make(i, [(i + offset) % n]))
    return Hypergraph(nodes=nodes, edges=edges)


def star_topology(n: int, center: int) -> Hypergraph:
    """A star: the centre multicasts to everyone, leaves unicast to the centre.

    This is the communication pattern of the trusted-baseline protocol
    where all CPS nodes talk only to the trusted control node.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    nodes = list(range(n))
    if center not in nodes:
        raise ValueError(f"center {center} is not a node id in range(0, {n})")
    leaves = [i for i in nodes if i != center]
    edges = [HyperEdge.make(center, leaves)]
    edges.extend(HyperEdge.make(leaf, [center]) for leaf in leaves)
    return Hypergraph(nodes=nodes, edges=edges)


#: How often :func:`random_kcast_topology` resamples a receiver set or a graph.
_MAX_ATTEMPTS = 200


def random_kcast_topology(n: int, k: int, rng: SeededRNG, edges_per_node: int = 1) -> Hypergraph:
    """A random k-cast topology that is strongly connected.

    Each node gets exactly ``edges_per_node`` outgoing k-casts with
    uniformly chosen *distinct* receiver sets drawn from ``rng``; a
    duplicate sample is resampled (bounded by ``_MAX_ATTEMPTS``) rather
    than silently dropped, so the graph never under-provisions a node's
    out-edges.  Requests that cannot be satisfied — more distinct receiver
    sets than ``comb(n-1, k)`` exist — raise :class:`ValueError` immediately.
    Whole-graph candidates are resampled until the resulting hypergraph is
    strongly connected (also bounded by ``_MAX_ATTEMPTS``).
    """
    _validate_n_k(n, k)
    if edges_per_node < 1:
        raise ValueError("edges_per_node must be at least 1")
    distinct_sets = comb(n - 1, k)
    if edges_per_node > distinct_sets:
        raise ValueError(
            f"edges_per_node={edges_per_node} is unsatisfiable: only "
            f"{distinct_sets} distinct receiver sets exist for n={n}, k={k}"
        )
    nodes = list(range(n))
    for _ in range(_MAX_ATTEMPTS):
        edges = []
        for node in nodes:
            others = [x for x in nodes if x != node]
            seen: set[frozenset[int]] = set()
            for _ in range(edges_per_node):
                receivers: Optional[frozenset[int]] = None
                for _ in range(_MAX_ATTEMPTS):
                    candidate_set = frozenset(rng.sample(others, k))
                    if candidate_set not in seen:
                        receivers = candidate_set
                        break
                if receivers is None:
                    raise RuntimeError(
                        f"could not sample {edges_per_node} distinct receiver "
                        f"sets for node {node} within {_MAX_ATTEMPTS} attempts "
                        f"(n={n}, k={k})"
                    )
                seen.add(receivers)
                edges.append(HyperEdge(sender=node, receivers=receivers))
        candidate = Hypergraph(nodes=list(nodes), edges=edges)
        if candidate.is_strongly_connected():
            return candidate
    raise RuntimeError(
        f"could not build a strongly connected random topology for n={n}, k={k}"
    )


def _validate_n_k(n: int, k: int) -> None:
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n - 1:
        raise ValueError(f"k={k} cannot exceed n-1={n - 1}")
