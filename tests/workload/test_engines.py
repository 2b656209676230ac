"""Workload engines: parsing, determinism, serialisation, byte-identity.

The engine contract under test:

* the arrival stream is a pure function of the spec (two builds identical,
  different seeds different);
* ``ClosedLoopPreload()`` is byte-identical to the pre-engine pipeline —
  a spec carrying the explicit default runs exactly like one carrying
  ``workload=None``: every trace section but ``spec`` is equal;
* every engine's ``describe()`` schema round-trips through
  ``workload_from_dict`` and the full ``DeploymentSpec`` JSON schema.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.session import Session
from repro.testkit.trace import TraceRecorder
from repro.workload import (
    ClosedLoopPreload,
    OpenLoopPoisson,
    parse_workload,
    workload_command_ids,
    workload_from_dict,
)
from repro.workload.engine import (
    WORKLOAD_KINDS,
    TraceReplay,
    WorkloadEngine,
    default_open_loop_duration,
)
from tests.conftest import assert_rebuildable_dataclass, registry_inventory
from tests.testkit.test_trace_pins import sections


def test_workload_kinds_registers_every_engine():
    """An engine missing from ``WORKLOAD_KINDS`` cannot be rebuilt by
    ``workload_from_dict``, so its specs do not round-trip."""
    engines = registry_inventory(WorkloadEngine)
    assert engines == set(WORKLOAD_KINDS.values())
    assert all(WORKLOAD_KINDS[cls.kind] is cls for cls in engines)
    for cls in engines:
        assert_rebuildable_dataclass(cls)


def open_loop_spec(rate=2.0, seed=17, **overrides):
    overrides.setdefault("workload", OpenLoopPoisson(rate=rate, clients=3))
    return DeploymentSpec(
        protocol="eesmr",
        n=5,
        f=1,
        k=2,
        target_height=4,
        block_interval=0.5,
        seed=seed,
        **overrides,
    )


# ----------------------------------------------------------------- parsing
def test_parse_workload_forms():
    assert isinstance(parse_workload("closed-loop"), ClosedLoopPreload)
    engine = parse_workload("open-loop:2.5")
    assert engine == OpenLoopPoisson(rate=2.5)
    assert parse_workload("open-loop:2.5:7") == OpenLoopPoisson(rate=2.5, clients=7)
    assert parse_workload("open-loop:2.5:7:12.0") == OpenLoopPoisson(
        rate=2.5, clients=7, duration=12.0
    )


def test_parse_workload_trace(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps([{"time": 0.5}, {"time": 1.25, "command_id": "x"}]))
    engine = parse_workload(f"trace:{path}")
    assert isinstance(engine, TraceReplay)
    assert [e[0] for e in engine.entries] == [0.5, 1.25]


@pytest.mark.parametrize(
    "text",
    ["open-loop", "open-loop:", "open-loop:fast", "trace:", "drizzle", ""],
)
def test_parse_workload_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_workload(text)


# ------------------------------------------------------------- determinism
def test_open_loop_stream_is_deterministic():
    spec = open_loop_spec()
    first = spec.workload.commands_for(spec)
    second = spec.workload.commands_for(spec)
    assert first == second
    assert [c.arrival_time for c in first] == [c.arrival_time for c in second]
    assert [c.payload_digest for c in first] == [c.payload_digest for c in second]


def test_open_loop_streams_differ_across_seeds():
    a = open_loop_spec(seed=17)
    b = open_loop_spec(seed=18)
    assert a.workload.commands_for(a) != b.workload.commands_for(b)


def test_open_loop_arrivals_are_ordered_and_bounded():
    spec = open_loop_spec(rate=8.0)
    commands = spec.workload.commands_for(spec)
    times = [c.arrival_time for c in commands]
    assert times == sorted(times)
    assert all(0 < t <= default_open_loop_duration(spec) for t in times)
    ids = [c.command_id for c in commands]
    assert len(set(ids)) == len(ids)
    assert all(i.startswith("ol") for i in ids)


def test_open_loop_run_is_byte_deterministic():
    spec = open_loop_spec()
    fingerprints = []
    for _ in range(2):
        fingerprints.append(run_protocol(spec, recorder=TraceRecorder()).trace.fingerprint())
    assert fingerprints[0] == fingerprints[1]


def test_open_loop_validation():
    with pytest.raises(ValueError, match="rate"):
        OpenLoopPoisson(rate=0)
    with pytest.raises(ValueError, match="duration"):
        OpenLoopPoisson(rate=1, duration=-1)
    with pytest.raises(ValueError, match="client"):
        OpenLoopPoisson(rate=1, clients=0)


# ----------------------------------------------------- closed-loop identity
def test_explicit_default_preload_runs_like_none():
    """workload=ClosedLoopPreload() runs byte-identically to workload=None:
    only the recorded spec tells the two apart."""
    base = dict(protocol="eesmr", n=5, f=1, k=2, target_height=3, seed=29)
    plain, explicit = (
        sections(run_protocol(spec, recorder=TraceRecorder()).trace)
        for spec in (DeploymentSpec(**base), DeploymentSpec(workload=ClosedLoopPreload(), **base))
    )
    del plain["spec"], explicit["spec"]
    assert plain == explicit


def test_non_default_surplus_is_visible_in_the_spec():
    base = dict(protocol="eesmr", n=5, f=1, k=2, target_height=3, seed=29)
    tweaked = DeploymentSpec(workload=ClosedLoopPreload(surplus_blocks=2), **base).to_dict()
    assert DeploymentSpec(**base).to_dict()["workload"] is None
    assert tweaked["workload"] == {"kind": "closed-loop", "surplus_blocks": 2}


def stream_digest(commands):
    """Every field of a stream, arrival stamps included, hashed in order."""
    blob = ";".join(
        f"{c.command_id},{c.client_id},{c.payload_size_bytes},{c.payload_digest},{c.arrival_time}"
        for c in commands
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "overrides, surplus, count, payload, pinned",
    [
        (dict(target_height=3, seed=3), 4, 7, 16, "5812d863657915d0"),
        (dict(target_height=3, command_payload_bytes=128), 4, 7, 128, "df42d9564b5f7e5c"),
        (dict(target_height=5, batch_size=2), 4, 18, 16, "622685b42bc4318e"),
        (dict(target_height=5, batch_size=2), 1, 12, 16, "c74c0bfe86140954"),
    ],
    ids=["seed-3", "payload-128", "batch-2", "surplus-1"],
)
def test_closed_loop_stream_is_pinned(overrides, surplus, count, payload, pinned):
    """``(target_height + surplus_blocks) × batch_size`` unstamped commands
    ``c0-<i>`` of the spec's payload size, a pure function of the spec.  The
    digests were recorded before the stream moved into the engine; every
    golden fingerprint was taken over this stream."""
    spec = DeploymentSpec(n=5, f=1, k=2, **overrides)
    engine = ClosedLoopPreload(surplus_blocks=surplus)
    commands = engine.commands_for(spec)
    assert [c.command_id for c in commands] == [f"c0-{i}" for i in range(count)]
    assert all(c.payload_size_bytes == payload and c.arrival_time is None for c in commands)
    assert stream_digest(commands) == pinned
    assert engine.commands_for(spec) == commands
    reseeded = engine.commands_for(dataclasses.replace(spec, seed=spec.seed + 1))
    assert stream_digest(reseeded) != pinned


def test_closed_loop_command_ids_are_unique():
    """A long preload stream still names each command once, all from client 0."""
    spec = DeploymentSpec(n=5, f=1, k=2, target_height=20, batch_size=5)
    commands = ClosedLoopPreload().commands_for(spec)
    assert len(commands) == (20 + 4) * 5
    assert len({c.command_id for c in commands}) == len(commands)
    assert {c.client_id for c in commands} == {0}


@pytest.mark.parametrize("protocol", ["eesmr", "trusted-baseline"])
def test_closed_loop_install_fills_every_pool_before_the_run(protocol):
    session = Session.from_spec(DeploymentSpec(protocol=protocol, n=5, f=1, k=2, target_height=3))
    assert session.sim.pending_events == 0
    for replica in session.replicas.values():
        assert len(replica.txpool) == len(session.commands) == 7


# ------------------------------------------------------------- trace replay
def test_trace_replay_from_file_and_inline_are_equal(tmp_path):
    entries = [
        {"time": 0.25, "command_id": "a", "client_id": 1, "payload_size_bytes": 32},
        {"time": 1.5},
    ]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(entries))
    from_file = TraceReplay(path=str(path))
    inline = TraceReplay(entries=((0.25, "a", 1, 32), (1.5, "tr1", 0, None)))
    assert from_file == inline  # path is provenance, not identity


def test_trace_replay_commands_defer_payload_to_spec():
    engine = TraceReplay(entries=((0.5, "a", 0, None), (1.0, "b", 0, 64)))
    spec = DeploymentSpec(command_payload_bytes=16)
    commands = engine.commands_for(spec)
    assert commands[0].payload_size_bytes == 16
    assert commands[1].payload_size_bytes == 64
    assert [c.arrival_time for c in commands] == [0.5, 1.0]


def test_trace_replay_rejects_bad_entries():
    with pytest.raises(ValueError, match="negative time"):
        TraceReplay(entries=((-1.0, "a", 0, None),))
    with pytest.raises(ValueError, match="duplicate"):
        TraceReplay(entries=((0.0, "a", 0, None), (1.0, "a", 0, None)))
    with pytest.raises(ValueError, match="time"):
        TraceReplay(entries=(("soon", "a"),))


def test_trace_run_commits_only_trace_commands():
    engine = TraceReplay(entries=((0.1, "a", 0, None), (0.6, "b", 0, None)))
    spec = open_loop_spec(workload=engine)
    result = run_protocol(spec, recorder=TraceRecorder())
    committed = {
        cid for cmds in result.trace.committed_commands.values() for cid in cmds
    }
    assert committed <= {"a", "b"}
    assert result.min_committed_height >= spec.target_height


# ------------------------------------------------------------ serialisation
@pytest.mark.parametrize(
    "engine",
    [
        ClosedLoopPreload(),
        ClosedLoopPreload(surplus_blocks=1),
        OpenLoopPoisson(rate=3.5, clients=4, duration=9.0, payload_size_bytes=128),
        TraceReplay(entries=((0.5, "a", 2, 64), (1.0, "tr1", 0, None))),
    ],
)
def test_describe_roundtrips(engine):
    rebuilt = workload_from_dict(json.loads(json.dumps(engine.describe())))
    assert rebuilt == engine
    assert rebuilt.describe() == engine.describe()


def test_workload_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown workload kind"):
        workload_from_dict({"kind": "chaos-monkey"})


@pytest.mark.parametrize(
    "data, culprit",
    [
        ({"kind": "open-loop", "rat": 5.0}, "rat"),  # a typo must not run at rate=1.0
        ({"kind": "open-loop", "rate": 2.0, "bogus": 1}, "bogus"),
        ({"kind": "closed-loop", "surplus": 2}, "surplus"),
        ({"kind": "trace", "path": "/tmp/elsewhere.json"}, "path"),  # provenance, not schema
    ],
)
def test_workload_from_dict_rejects_unknown_keys(data, culprit):
    with pytest.raises(ValueError, match=f"unknown .* workload keys .*{culprit}"):
        workload_from_dict(data)
    with pytest.raises(ValueError, match=culprit):
        DeploymentSpec.from_dict({"workload": data})


def test_workload_from_dict_omitted_keys_take_the_engine_defaults():
    assert workload_from_dict({"kind": "open-loop", "rate": 2.0}) == OpenLoopPoisson(rate=2.0)
    assert workload_from_dict({"kind": "open-loop"}) == OpenLoopPoisson()
    assert workload_from_dict({"kind": "closed-loop"}) == ClosedLoopPreload()
    assert workload_from_dict({"kind": "trace"}) == TraceReplay()


def test_spec_json_roundtrip_with_workload_and_limit():
    spec = open_loop_spec(txpool_limit=32)
    encoded = json.dumps(spec.to_dict(), sort_keys=True)
    rebuilt = DeploymentSpec.from_dict(json.loads(encoded))
    assert rebuilt == spec
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == encoded


def test_workload_command_ids_defaults_to_preload():
    spec = DeploymentSpec(protocol="eesmr", n=5, f=1, k=2, target_height=3)
    assert workload_command_ids(spec) == ClosedLoopPreload().command_ids(spec)
    ol = open_loop_spec()
    assert workload_command_ids(ol) == {
        c.command_id for c in ol.workload.commands_for(ol)
    }
