"""Property tests: the declarative DeploymentSpec schema round-trips.

``DeploymentSpec.to_dict`` is the one schema every surface serialises
through (CLI ``--spec`` files, matrix cell dumps, benchmark manifests);
these properties pin that an arbitrary spec — including composed fault
schedules and the adaptive atoms — survives ``to_dict → json → from_dict``
unchanged, and that validation rejects malformed input early.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.runner import MEDIA, PROTOCOLS, TOPOLOGIES, DeploymentSpec
from repro.net.impairment import ImpairmentSpec, SpecError
from repro.testkit import faults
from repro.workload import ClosedLoopPreload, OpenLoopPoisson
from repro.workload.engine import TraceReplay


# ------------------------------------------------------------- strategies
fault_atoms = st.one_of(
    st.builds(faults.CrashAt, node=st.integers(0, 9), time=st.floats(0, 10)),
    st.builds(faults.StallAt, node=st.integers(0, 9), round=st.integers(1, 8)),
    st.builds(faults.EquivocateAt, node=st.integers(0, 9), round=st.integers(1, 8)),
    st.builds(faults.SilentFrom, node=st.integers(0, 9)),
    # start tops out strictly below the end/heal floor: degenerate
    # (zero-length) windows are rejected at construction.
    st.builds(
        faults.RelayDropWindow,
        node=st.integers(0, 9),
        start=st.floats(0, 4.5),
        end=st.floats(5, 10),
    ),
    st.builds(
        faults.PartitionWindow,
        node=st.integers(0, 9),
        start=st.floats(0, 4.5),
        heal=st.floats(5, 10),
    ),
    st.builds(
        faults.CrashRecoverWindow,
        node=st.integers(0, 9),
        start=st.floats(0, 4.5),
        heal=st.floats(5, 10),
    ),
    st.builds(
        faults.LeaderFollowingCrash,
        budget=st.integers(1, 3),
        start=st.floats(0, 5),
        interval=st.floats(0.1, 4),
    ),
    # Impairment-window values live in (0, 1]; min_value stays clear of 0.
    st.builds(
        faults.LossWindow,
        node=st.integers(0, 9),
        start=st.floats(0, 4.5),
        end=st.floats(5, 10),
        loss=st.floats(0.05, 1.0),
    ),
    st.builds(
        faults.DuplicateWindow,
        node=st.integers(0, 9),
        start=st.floats(0, 4.5),
        end=st.floats(5, 10),
        probability=st.floats(0.05, 1.0),
    ),
    st.builds(
        faults.JitterWindow,
        node=st.integers(0, 9),
        start=st.floats(0, 4.5),
        end=st.floats(5, 10),
        jitter=st.floats(0.05, 1.0),
    ),
)

# Distinct-node atom tuples (a node may carry at most one Byzantine
# behaviour, which FaultSchedule validates).
schedules = st.lists(fault_atoms, min_size=0, max_size=4).map(
    lambda atoms: faults.FaultSchedule(
        tuple({a.node: a for a in atoms}.values())  # one atom per node
    )
)

# Trace entries are drawn with strictly increasing times and distinct ids
# (both validated at TraceReplay construction).
trace_replays = st.lists(
    st.floats(0, 10), min_size=1, max_size=4, unique=True
).map(
    lambda times: TraceReplay(
        entries=tuple(
            (t, f"tr{i}", i % 2, None) for i, t in enumerate(sorted(times))
        )
    )
)

impairments = st.one_of(
    st.none(),
    st.builds(
        ImpairmentSpec,
        loss=st.floats(0, 0.9),
        duplicate=st.floats(0, 0.9),
        jitter=st.floats(0, 2),
        reorder=st.floats(0, 0.9),
        start=st.floats(0, 4.5),
        end=st.floats(5, 10),
        ble_calibrated=st.booleans(),
        max_retries=st.integers(0, 6),
    ),
    st.builds(ImpairmentSpec, ble_calibrated=st.just(True)),
)

workloads = st.one_of(
    st.none(),
    st.builds(ClosedLoopPreload, surplus_blocks=st.integers(0, 8)),
    st.builds(
        OpenLoopPoisson,
        rate=st.floats(0.1, 32),
        clients=st.integers(1, 4),
        duration=st.one_of(st.none(), st.floats(0.5, 20)),
        payload_size_bytes=st.one_of(st.none(), st.integers(1, 512)),
    ),
    trace_replays,
)


def _within(n, node):
    """Fold a drawn node id into ``range(n)`` (an adaptive atom's -1 stays)."""
    return node % n if node >= 0 else node


@st.composite
def specs(draw):
    n = draw(st.integers(3, 12))
    use_schedule = draw(st.booleans())
    # A spec rejects fault targets outside ``range(n)``: fold the ids the
    # shared strategies draw from 0..9 into the deployment.
    atoms = [dataclasses.replace(a, node=_within(n, a.node)) for a in draw(schedules).faults]
    schedule = faults.FaultSchedule(tuple({a.node: a for a in atoms}.values()))
    return DeploymentSpec(
        protocol=draw(st.sampled_from(PROTOCOLS)),
        n=n,
        f=draw(st.integers(0, (n - 1) // 2)),
        k=draw(st.integers(1, n - 1)),
        topology=draw(st.sampled_from(TOPOLOGIES)),
        edges_per_node=draw(st.integers(1, 3)),
        topology_seed=draw(st.one_of(st.none(), st.integers(0, 2**31))),
        medium=draw(st.sampled_from(MEDIA)),
        hop_delay=draw(st.floats(0.1, 4)),
        delta=draw(st.one_of(st.none(), st.floats(1, 40))),
        signature_scheme=draw(st.sampled_from(["rsa-1024", "rsa-2048", "ecdsa-secp256r1"])),
        batch_size=draw(st.integers(1, 4)),
        command_payload_bytes=draw(st.integers(1, 512)),
        target_height=draw(st.integers(1, 8)),
        block_interval=draw(st.floats(0, 4)),
        fault_schedule=schedule if use_schedule else None,
        seed=draw(st.integers(0, 2**31)),
        jitter=draw(st.booleans()),
        workload=draw(workloads),
        txpool_limit=draw(st.one_of(st.none(), st.integers(1, 256))),
        impairment=draw(impairments),
    )


# ------------------------------------------------------------- properties
@settings(max_examples=150, deadline=None)
@given(specs())
def test_spec_roundtrips_through_json(spec):
    encoded = json.dumps(spec.to_dict(), sort_keys=True)
    rebuilt = DeploymentSpec.from_dict(json.loads(encoded))
    assert rebuilt == spec
    # And the re-encoded form is byte-identical (canonical schema).
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == encoded


@settings(max_examples=50, deadline=None)
@given(schedules)
def test_schedule_describe_roundtrips(schedule):
    rebuilt = faults.schedule_from_dict(schedule.describe())
    assert rebuilt == schedule
    assert rebuilt.describe() == schedule.describe()


def test_from_dict_rejects_unknown_fields():
    data = DeploymentSpec().to_dict()
    data["warp_factor"] = 9
    with pytest.raises(ValueError, match="warp_factor"):
        DeploymentSpec.from_dict(data)


def test_fault_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        faults.fault_from_dict({"kind": "Gremlin", "node": 0})


def test_spec_validates_topology_early():
    with pytest.raises(ValueError, match="unknown topology"):
        DeploymentSpec(topology="moebius-strip")


def test_spec_validates_edges_per_node_early():
    with pytest.raises(ValueError, match="edges_per_node"):
        DeploymentSpec(topology="random-kcast", edges_per_node=0)
    # Only random-kcast constrains edges_per_node.
    DeploymentSpec(topology="ring-kcast", edges_per_node=0)


# ------------------------------------------------------ one mutated leaf
def _leaves(node, path=()):
    """Every ``(path, container)`` slot of a JSON document holding a leaf."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), node


#: What a hand-edited or machine-corrupted spec file can hold in a slot:
#: the wrong type, the non-finite numbers ``json`` parses, a negative, an
#: id outside any deployment, and a container where a scalar goes.
MUTANTS = ("x", True, None, float("nan"), float("inf"), float("-inf"), -3, 1.5, 10**6, [], {})


@settings(max_examples=300, deadline=None)
@given(specs(), st.data())
def test_one_mutated_leaf_is_a_spec_error_or_a_round_tripping_spec(spec, data):
    """The boundary's contract: whatever one leaf of a valid spec document
    is changed to (or whichever unknown key is added beside it), rebuilding
    raises ``SpecError`` or yields a spec that round-trips — never a
    ``TypeError`` / ``KeyError`` / ``OverflowError``, and never a spec that
    differs from its own description (a NaN that slipped through)."""
    document = json.loads(json.dumps(spec.to_dict()))
    path, container = data.draw(st.sampled_from(list(_leaves(document))))
    if isinstance(container, dict) and data.draw(st.booleans()):
        container["warp_factor"] = 9
    else:
        container[path[-1]] = data.draw(st.sampled_from(MUTANTS))
    try:
        rebuilt = DeploymentSpec.from_dict(document)
    except SpecError:
        return
    assert DeploymentSpec.from_dict(rebuilt.to_dict()) == rebuilt
