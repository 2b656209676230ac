"""Network substrate: hypergraph model, topologies and the simulated transport."""

from repro.net.hypergraph import Hypergraph
from repro.net.topology import (
    ring_kcast_topology,
    fully_connected_topology,
    unicast_ring_topology,
    star_topology,
    random_kcast_topology,
)
from repro.net.network import (
    SimulatedNetwork,
    NetworkStats,
)
from repro.net.impairment import (
    ImpairmentSpec,
    impairment_from_dict,
    parse_impairment,
)

__all__ = [
    "Hypergraph",
    "ring_kcast_topology",
    "fully_connected_topology",
    "unicast_ring_topology",
    "star_topology",
    "random_kcast_topology",
    "SimulatedNetwork",
    "NetworkStats",
    "ImpairmentSpec",
    "impairment_from_dict",
    "parse_impairment",
]
