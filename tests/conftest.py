"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.adversary import FaultPlan
from repro.core.config import ProtocolConfig
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import make_scheme
from repro.energy.ledger import ClusterEnergyLedger
from repro.eval.runner import DeploymentSpec
from repro.net.network import SimulatedNetwork
from repro.net.topology import ring_kcast_topology
from repro.sim.rng import SeededRNG
from repro.sim.scheduler import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> SeededRNG:
    """A deterministic RNG."""
    return SeededRNG(1234)


@pytest.fixture
def keystore() -> KeyStore:
    """A key store with keys for nodes 0..9."""
    store = KeyStore(seed=7)
    store.generate(range(10))
    return store


@pytest.fixture
def scheme(keystore):
    """An RSA-1024 signature scheme bound to the shared key store."""
    return make_scheme("rsa-1024", keystore=keystore)


@pytest.fixture
def small_config() -> ProtocolConfig:
    """A small protocol configuration (n=5, f=1)."""
    return ProtocolConfig(n=5, f=1, delta=4.0, target_height=3)


def make_network(n: int = 5, k: int = 2, seed: int = 3):
    """Helper building (sim, topology, ledger, network) for low-level tests."""
    sim = Simulator()
    topology = ring_kcast_topology(n, k)
    ledger = ClusterEnergyLedger(topology.nodes)
    network = SimulatedNetwork(sim, topology, ledger, rng=SeededRNG(seed), hop_delay=1.0)
    return sim, topology, ledger, network


def record_scheduled(sim):
    """Every event scheduled on ``sim`` from now on, through its public entry points."""
    events = []
    for name in ("schedule", "schedule_at"):

        def recording(*args, _schedule=getattr(sim, name), **kwargs):
            event = _schedule(*args, **kwargs)
            events.append(event)
            return event

        setattr(sim, name, recording)
    return events


def entry_count(queue):
    """Heap entries a ``BucketedEventQueue`` holds, stale and cancelled ones included."""
    return len(queue._near) + sum(map(len, queue._buckets.values())) + len(queue._far)


def registry_inventory(root: type) -> set:
    """The classes a ``root``-keyed serializer registry must hold.

    The public subclasses of ``root`` defined in ``root``'s own module that
    no other class of that module extends.  Underscore bases and classes
    other modules derive (a test-local probe) are not registry entries.
    """
    module = root.__module__
    leaves, frontier = set(), [root]
    while frontier:
        cls = frontier.pop()
        children = [sub for sub in cls.__subclasses__() if sub.__module__ == module]
        if not children and cls is not root and not cls.__name__.startswith("_"):
            leaves.add(cls)
        frontier.extend(children)
    return leaves


def assert_rebuildable_dataclass(cls: type) -> None:
    """``cls`` is itself a dataclass (``from_kind`` rebuilds it from its
    fields) and declares no underscore field: schema fields are public, and
    ``Fault.describe()`` drops underscore state."""
    assert "__dataclass_fields__" in vars(cls), f"{cls.__name__} is not a @dataclass"
    hidden = [field.name for field in dataclasses.fields(cls) if field.name.startswith("_")]
    assert not hidden, f"{cls.__name__} fields {hidden} drop out of describe()"


def honest_spec(protocol: str = "eesmr", n: int = 5, f: int = 1, k: int = 2, blocks: int = 3, seed: int = 5, **kwargs) -> DeploymentSpec:
    """A small honest-run deployment spec."""
    return DeploymentSpec(
        protocol=protocol, n=n, f=f, k=k, target_height=blocks, seed=seed, **kwargs
    )


def faulty_spec(behaviour: str, protocol: str = "eesmr", n: int = 5, f: int = 1, k: int = 2, blocks: int = 3, seed: int = 5, **kwargs) -> DeploymentSpec:
    """A deployment spec whose view-1 leader (node 0) is Byzantine."""
    return DeploymentSpec(
        protocol=protocol,
        n=n,
        f=f,
        k=k,
        target_height=blocks,
        seed=seed,
        fault_plan=FaultPlan(faulty=(0,), behaviour=behaviour),
        **kwargs,
    )
