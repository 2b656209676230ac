"""Hypergraph network model (Appendix A of the paper).

A CPS deployment where nodes can reach several neighbours with a single
wireless multicast is modelled as a hypergraph ``H = (N, E)`` whose
hyper-edges are ``(sender, receiver-set)`` pairs (Definition A.1).  This
module implements the paper's definitions and fault-tolerance results:

* in-degree / out-degree of a node as *distinct reachable nodes*
  (Definitions A.3 and A.4);
* ``D_in`` / ``D_out`` as the minimum number of incoming / outgoing
  hyper-edges over all nodes;
* independence of edges (Definition A.2);
* the necessary fault-tolerance conditions
  ``f < min_p (d_out(p), d_in(p))`` (Lemma A.5) and
  ``f < k * min(D_in, D_out)`` (Lemma A.6);
* partition resistance: the graph stays strongly connected after removing
  any ``f`` nodes (the assumption the protocol section relies on).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.optional import require

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class HyperEdge:
    """A directed multicast edge: one sender, a set of receivers.

    Self-loops are excluded by construction, matching Definition A.1
    (``S(e) not in R(e)``).
    """

    sender: int
    receivers: FrozenSet[int]

    def __post_init__(self) -> None:
        if not self.receivers:
            raise ValueError("a hyper-edge must have at least one receiver")
        if self.sender in self.receivers:
            raise ValueError(
                f"self-loops are not allowed: sender {self.sender} in receivers"
            )

    @property
    def degree(self) -> int:
        """Number of receivers (the edge's k)."""
        return len(self.receivers)

    @cached_property
    def receivers_sorted(self) -> tuple:
        """Receivers in ascending order, computed once per edge.

        The network transmits to receivers in sorted order for determinism;
        precomputing the order here keeps an O(k log k) sort out of the
        per-transmission hot path.  (``cached_property`` writes straight
        into the instance ``__dict__``, which frozen dataclasses allow.)
        """
        return tuple(sorted(self.receivers))

    @staticmethod
    def make(sender: int, receivers: Iterable[int]) -> "HyperEdge":
        """Convenience constructor from any iterable of receivers."""
        return HyperEdge(sender=sender, receivers=frozenset(receivers))


@dataclass
class Hypergraph:
    """A directed communication hypergraph (Definition A.1).

    The topology is fixed once built: the sender index, and the network's
    dissemination plans compiled from it, assume ``edges`` never changes.
    """

    nodes: List[int]
    edges: List[HyperEdge] = field(default_factory=list)

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        for edge in self.edges:
            if edge.sender not in node_set:
                raise ValueError(f"edge sender {edge.sender} is not a node")
            missing = edge.receivers - node_set
            if missing:
                raise ValueError(f"edge receivers {sorted(missing)} are not nodes")

    # ------------------------------------------------------------- topology
    def out_edges(self, node: int) -> Sequence[HyperEdge]:
        """Hyper-edges on which ``node`` is the sender.

        Backed by a lazily built sender index: flooding queries the same
        adjacency once per relay per flood, so a linear scan of ``edges``
        here would make every broadcast O(n·|E|).  The result is an
        immutable tuple — mutating it was never supported, and handing out
        the index's internal lists would let a caller corrupt the adjacency
        silently.
        """
        index = self.__dict__.get("_out_index")
        if index is None:
            grouped: Dict[int, List[HyperEdge]] = {}
            for edge in self.edges:
                grouped.setdefault(edge.sender, []).append(edge)
            index = {sender: tuple(edges) for sender, edges in grouped.items()}
            self.__dict__["_out_index"] = index
        return index.get(node, ())

    def in_edges(self, node: int) -> List[HyperEdge]:
        """Hyper-edges on which ``node`` is a receiver."""
        return [edge for edge in self.edges if node in edge.receivers]

    def out_neighbors(self, node: int) -> Set[int]:
        """Distinct nodes reachable from ``node`` in one hop."""
        neighbors: Set[int] = set()
        for edge in self.out_edges(node):
            neighbors |= edge.receivers
        return neighbors

    def in_neighbors(self, node: int) -> Set[int]:
        """Distinct nodes that can reach ``node`` in one hop."""
        return {edge.sender for edge in self.in_edges(node)}

    def d_out(self, node: int) -> int:
        """Out-degree: number of distinct reachable nodes (Definition A.4)."""
        return len(self.out_neighbors(node))

    def d_in(self, node: int) -> int:
        """In-degree: number of distinct nodes that can reach ``node`` (Definition A.3)."""
        return len(self.in_neighbors(node))

    @property
    def capital_d_out(self) -> int:
        """``D_out``: minimum number of outgoing hyper-edges over all nodes."""
        return min((len(self.out_edges(p)) for p in self.nodes), default=0)

    @property
    def capital_d_in(self) -> int:
        """``D_in``: minimum number of incoming hyper-edges over all nodes."""
        return min((len(self.in_edges(p)) for p in self.nodes), default=0)

    @property
    def k(self) -> int:
        """The k of the k-casts: the minimum receiver count over all edges."""
        return min((edge.degree for edge in self.edges), default=0)

    # ----------------------------------------------------------- properties
    def has_independent_edges(self) -> bool:
        """Check Definition A.2: no sender has two distinct edge subsets covering the same receivers.

        A sufficient and practical check (the one the paper's "modified
        spanning tree algorithm" would enforce) is that no edge of a sender
        is fully covered by the union of that sender's other edges.  This
        rejects exactly the redundant-edge situation of the paper's example.
        """
        for node in self.nodes:
            edges = self.out_edges(node)
            for i, edge in enumerate(edges):
                others: Set[int] = set()
                for j, other in enumerate(edges):
                    if i != j:
                        others |= other.receivers
                if edge.receivers <= others:
                    return False
        return True

    def to_digraph(self, exclude: Optional[Iterable[int]] = None) -> nx.DiGraph:
        """Flatten to a networkx digraph on nodes (hyper-edges become stars).

        The export for graph tooling, and the reference the tests compare
        the native searches below against; nothing on a run path calls it.
        """
        nx = require("networkx", "Hypergraph.to_digraph()")
        skip = set(exclude or ())
        graph = nx.DiGraph()
        graph.add_nodes_from(n for n in self.nodes if n not in skip)
        for edge in self.edges:
            if edge.sender in skip:
                continue
            for receiver in edge.receivers:
                if receiver not in skip:
                    graph.add_edge(edge.sender, receiver)
        return graph

    def _successors(self, exclude: Optional[Iterable[int]] = None) -> Dict[int, List[int]]:
        """One-hop successor lists of the flattened digraph on surviving nodes.

        Built from ``receivers_sorted`` so every traversal below visits
        neighbours in one fixed order.
        """
        skip = set(exclude or ())
        successors: Dict[int, List[int]] = {n: [] for n in self.nodes if n not in skip}
        for edge in self.edges:
            out = successors.get(edge.sender)
            if out is not None:
                out.extend(r for r in edge.receivers_sorted if r in successors)
        return successors

    def is_strongly_connected(self, exclude: Optional[Iterable[int]] = None) -> bool:
        """Whether the surviving nodes form a strongly connected digraph.

        One node reaches everyone and everyone reaches it: a forward and a
        reverse breadth-first search from the same source.
        """
        successors = self._successors(exclude)
        if len(successors) <= 1:
            return True
        source = next(iter(successors))
        if len(_bfs_depths(successors, source)) < len(successors):
            return False
        predecessors: Dict[int, List[int]] = {n: [] for n in successors}
        for node, out in successors.items():
            for receiver in out:
                predecessors[receiver].append(node)
        return len(_bfs_depths(predecessors, source)) == len(successors)

    def diameter(self) -> int:
        """Longest shortest-path length between any two nodes (hop count).

        Every source at once, as bitsets: after round ``d``, bit ``j`` of
        ``reach[i]`` says node ``i`` reaches node ``j`` in at most ``d``
        hops.  A round ORs each node's successors' sets (of the previous
        round) into its own; the diameter is the number of rounds until
        every set is full.
        """
        successors = self._successors()
        index = {node: i for i, node in enumerate(successors)}
        out = [[index[receiver] for receiver in receivers] for receivers in successors.values()]
        full = (1 << len(index)) - 1
        reach = [1 << i for i in range(len(index))]
        diameter = 0
        while any(bits != full for bits in reach):
            grown = []
            for bits, targets in zip(reach, out):
                for target in targets:
                    bits |= reach[target]
                grown.append(bits)
            if grown == reach:
                raise ValueError("diameter undefined: hypergraph is not strongly connected")
            reach = grown
            diameter += 1
        return diameter

    # ------------------------------------------------------- fault tolerance
    def max_faults_necessary_condition(self) -> int:
        """Largest f satisfying Lemma A.5: f < min_p(d_out(p), d_in(p))."""
        if not self.nodes:
            return 0
        bound = min(min(self.d_out(p), self.d_in(p)) for p in self.nodes)
        return max(0, bound - 1)

    def max_faults_kcast_condition(self) -> int:
        """Largest f satisfying Lemma A.6: f < k * min(D_in, D_out)."""
        bound = self.k * min(self.capital_d_in, self.capital_d_out)
        return max(0, bound - 1)

    def satisfies_fault_bound(self, f: int) -> bool:
        """Whether ``f`` faults satisfy the necessary condition of Lemma A.5."""
        if f < 0:
            raise ValueError("f cannot be negative")
        return f <= self.max_faults_necessary_condition()

    def is_partition_resistant(self, f: int, exhaustive_limit: int = 200_000) -> bool:
        """Whether removing any ``f`` nodes leaves the rest strongly connected.

        For small systems (the paper's experiments use n <= 15) this is an
        exhaustive check over all subsets of size ``f``; for larger systems
        it falls back to the directed node-connectivity bound
        ``kappa(G) > f``, which is a sufficient condition.
        """
        if f < 0:
            raise ValueError("f cannot be negative")
        if f == 0:
            return self.is_strongly_connected()
        if f >= len(self.nodes):
            return False
        from math import comb

        if comb(len(self.nodes), f) <= exhaustive_limit:
            for removed in itertools.combinations(self.nodes, f):
                if not self.is_strongly_connected(exclude=removed):
                    return False
            return True
        nx = require("networkx", "is_partition_resistant() past the exhaustive limit")
        return nx.node_connectivity(self.to_digraph()) > f


def _bfs_depths(adjacency: Dict[int, List[int]], source: int) -> Dict[int, int]:
    """Hop distance from ``source`` to every node reachable through ``adjacency``."""
    depths = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for node in frontier:
            depth = depths[node] + 1
            for neighbor in adjacency[node]:
                if neighbor not in depths:
                    depths[neighbor] = depth
                    reached.append(neighbor)
        frontier = reached
    return depths
