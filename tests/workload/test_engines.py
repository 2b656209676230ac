"""Workload engines: parsing, determinism, serialisation, byte-identity.

The engine contract under test:

* the arrival stream is a pure function of the spec (two builds identical,
  different seeds different);
* ``ClosedLoopPreload()`` is byte-identical to the pre-engine pipeline —
  a spec carrying the explicit default fingerprints exactly like one
  carrying ``workload=None``;
* every engine's ``describe()`` schema round-trips through
  ``workload_from_dict`` and the full ``DeploymentSpec`` JSON schema.
"""

import json

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.testkit.trace import TraceRecorder
from repro.workload import (
    ClosedLoopPreload,
    OpenLoopPoisson,
    TraceReplay,
    default_open_loop_duration,
    parse_workload,
    workload_command_ids,
    workload_from_dict,
)


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
def test_explicit_default_preload_fingerprints_like_none():
    """workload=ClosedLoopPreload() is byte-identical to workload=None."""
    base = dict(protocol="eesmr", n=5, f=1, k=2, target_height=3, seed=29)
    plain = DeploymentSpec(**base)
    explicit = DeploymentSpec(workload=ClosedLoopPreload(), **base)
    fps = []
    for spec in (plain, explicit):
        fps.append(run_protocol(spec, recorder=TraceRecorder()).trace.fingerprint())
    assert fps[0] == fps[1]


def test_non_default_surplus_is_visible_in_spec_fingerprint():
    from repro.testkit.trace import spec_fingerprint

    base = dict(protocol="eesmr", n=5, f=1, k=2, target_height=3, seed=29)
    plain = spec_fingerprint(DeploymentSpec(**base))
    tweaked = spec_fingerprint(
        DeploymentSpec(workload=ClosedLoopPreload(surplus_blocks=2), **base)
    )
    assert "workload" not in plain
    assert tweaked["workload"] == {"kind": "closed-loop", "surplus_blocks": 2}


# ------------------------------------------------------------- trace replay
def test_trace_replay_from_file_and_inline_are_equal(tmp_path):
    entries = [
        {"time": 0.25, "command_id": "a", "client_id": 1, "payload_size_bytes": 32},
        {"time": 1.5},
    ]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(entries))
    from_file = TraceReplay.from_file(str(path))
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
