"""Unit tests for the deployment spec, ``run_protocol`` and the topology/Δ stage functions."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core.adversary import FaultPlan
from repro.crypto import available_schemes
from repro.eval.runner import DeploymentSpec, run_protocol
from repro.fuzz.corpus import CorpusEntry, _content_id
from repro.net.impairment import SpecError
from repro.session import Session, SessionBuilder
from repro.session.builder import build_topology, compute_delta
from repro.sim.events import BucketedEventQueue
from repro.testkit.faults import CrashAt, FaultSchedule
from repro.testkit.trace import TraceRecorder, spec_fingerprint
from repro.workload.engine import TraceReplay
from tests.conftest import honest_spec
from tests.testkit.test_golden_fingerprints import GOLDEN


def test_spec_validation():
    with pytest.raises(ValueError):
        DeploymentSpec(protocol="pbft")
    with pytest.raises(ValueError):
        DeploymentSpec(protocol="eesmr", n=5, k=5)


@pytest.mark.parametrize(
    "section, text, message",
    [
        (
            "fault_schedule",
            '[{"kind": "SilentFrom", "node": 0},'
            ' {"kind": "PartitionWindow", "node": 2, "start": NaN, "heal": 5.0}]',
            "fault entry 1: partition start must be finite",
        ),
        (
            "fault_schedule",
            '[{"kind": "LossWindow", "node": 2, "start": 1.0, "end": Infinity, "loss": 0.5}]',
            "fault entry 0: impairment end must be finite",
        ),
        (
            "fault_schedule",
            '[{"kind": "CrashAt", "node": 2, "time": NaN}]',
            "fault entry 0: crash time must be finite",
        ),
        (
            "fault_schedule",
            '[{"kind": "LeaderFollowingCrash", "interval": Infinity}]',
            "fault entry 0: adaptive interval must be finite",
        ),
        ("impairment", '{"loss": 0.9, "start": NaN}', "impairment start must be finite"),
        ("impairment", '{"loss": 0.9, "end": NaN}', "impairment end must be finite"),
    ],
    ids=["partition-nan", "loss-window-inf", "crash-nan", "adaptive-inf", "spec-start", "spec-end"],
)
def test_from_dict_rejects_the_non_finite_numbers_json_parses(section, text, message):
    """``json.loads`` accepts ``NaN`` and ``Infinity``.  A spec carrying one
    where a time goes is refused where it is rebuilt, naming the field (and
    the schedule entry) — not when the event queue chokes on it, and not
    never, as a window that is silently never active."""
    import json

    data = {**DeploymentSpec().to_dict(), section: json.loads(text)}
    with pytest.raises(ValueError, match=message):
        DeploymentSpec.from_dict(data)


# ------------------------------------------------------------ one error
NAN = float("nan")


def _schedule(*atoms):
    return {"fault_schedule": list(atoms)}


def _atom(kind, **fields):
    return {"kind": kind, **fields}


def _workload(kind, **fields):
    return {"workload": {"kind": kind, **fields}}


def _plan(schedule=(), **fields):
    """A ``FaultPlan`` row: no JSON spec holds a plan, so the row builds the
    spec through the constructor, where the plan is lowered."""

    def build():
        return DeploymentSpec(
            n=5, f=1, k=2, target_height=3, fault_plan=FaultPlan(**fields),
            fault_schedule=FaultSchedule(schedule) if schedule else None,
        )  # fmt: skip

    return build


#: One malformed leaf per row, laid over a valid n=5 spec: ``(id, overlay,
#: the JSON path the error must start with)``; a ``FaultPlan`` row's overlay
#: builds the spec instead.  Before these checks the rows raised
#: ``TypeError`` or ``KeyError``, crashed in the event queue, or ran to the
#: target height with the fault silently never applied.
PROBES = [
    ("n-str", {"n": "7"}, "n: "),
    ("block-interval-nan", {"block_interval": NAN}, "block_interval: "),
    ("delta-nan", {"delta": NAN}, "delta: "),
    ("batch-size-0", {"batch_size": 0}, "batch_size: "),
    ("seed-float", {"seed": 1.5}, "seed: "),
    ("jitter-str", {"jitter": "yes"}, "jitter: "),
    ("jitter-int", {"jitter": 3}, "jitter: "),
    ("txpool-limit-bool", {"txpool_limit": True}, "txpool_limit: "),
    ("topology-seed-str", {"topology_seed": "x"}, "topology_seed: "),
    ("k-above-n-1", {"k": 5}, "k: "),
    ("scheme-unknown", {"signature_scheme": "nope"}, "signature_scheme: "),
    ("rate-nan", _workload("open-loop", rate=NAN), "workload.rate: "),
    ("rate-str", _workload("open-loop", rate="2"), "workload.rate: "),
    ("duration-inf", _workload("open-loop", duration=float("inf")), "workload.duration: "),
    ("clients-str", _workload("open-loop", clients="3"), "workload.clients: "),
    ("surplus-negative", _workload("closed-loop", surplus_blocks=-3), "workload.surplus_blocks: "),
    ("workload-kind-list", _workload([]), "workload.kind: "),
    ("trace-time-nan", _workload("trace", entries=[{"time": NAN}]), "workload.entries[0].time: "),
    (
        "trace-client-id-str",
        _workload("trace", entries=[{"time": 1.0}, {"time": 2.0, "client_id": "x"}]),
        "workload.entries[1].client_id: ",
    ),
    (
        "trace-payload-str",
        _workload("trace", entries=[{"time": 1.0, "payload_size_bytes": "16"}]),
        "workload.entries[0].payload_size_bytes: ",
    ),
    ("trace-entries-int", _workload("trace", entries=5), "workload.entries: "),
    ("plan-faulty-outside", _plan(faulty=(9,)), "fault_schedule[0].node: "),
    ("plan-faulty-str", _plan(faulty=("1",)), "faulty: "),
    ("plan-faulty-repeated", _plan(faulty=(1, 1)), "faulty: "),
    ("plan-round-str", _plan(trigger_round="3"), "trigger_round: "),
    ("plan-round-0", _plan(trigger_round=0), "trigger_round: "),
    ("plan-crash-time-nan", _plan(crash_time=NAN), "crash_time: "),
    ("plan-silent-crash-time", _plan(faulty=(0,), behaviour="silent", crash_time=1.0), "crash_time: "),
    ("plan-and-schedule", _plan(faulty=(0,), schedule=(CrashAt(1),)), "fault_plan: "),
    # A spec file written before the plan became constructor shorthand.
    ("plan-bogus-key", {"fault_plan": {"bogus": 1}}, "unknown DeploymentSpec keys ['fault_plan']"),
    ("plan-section", {"fault_plan": {"faulty": [0]}}, "unknown DeploymentSpec keys ['fault_plan']"),
    ("crash-node-outside", _schedule(_atom("CrashAt", node=9)), "fault_schedule[0].node: "),
    ("node-str", _schedule(_atom("SilentFrom", node="1")), "fault_schedule[0].node: "),
    ("node-bool", _schedule(_atom("SilentFrom", node=True)), "fault_schedule[0].node: "),
    ("node-missing", _schedule(_atom("SilentFrom")), "fault_schedule[0]: "),
    (
        "partition-node-negative",
        _schedule(
            _atom("SilentFrom", node=0), _atom("PartitionWindow", node=-1, start=1.0, heal=3.0)
        ),
        "fault_schedule[1].node: ",
    ),
    (
        "window-end-nan",
        _schedule(
            _atom("SilentFrom", node=0),
            _atom("CrashAt", node=1),
            _atom("RelayDropWindow", node=2, start=1.0, end=NAN),
        ),
        "fault_schedule[2].end: ",
    ),
    ("stall-str", _schedule(_atom("StallAt", node=0, round="3")), "fault_schedule[0].round: "),
    ("equivoc-0", _schedule(_atom("EquivocateAt", node=0, round=0)), "fault_schedule[0].round: "),
    (
        "failstop-nan",
        _schedule(_atom("StallAt", node=0, baseline_failstop=NAN)),
        "fault_schedule[0].baseline_failstop: ",
    ),
    ("kind-unknown", _schedule(_atom("Gremlin", node=0)), "fault_schedule[0].kind: "),
    ("fault-entry-str", _schedule("CrashAt"), "fault_schedule[0]: "),
    ("schedule-not-a-list", {"fault_schedule": _atom("CrashAt")}, "fault_schedule: "),
    (
        "two-behaviours",
        _schedule(_atom("CrashAt", node=1), _atom("SilentFrom", node=1)),
        "fault_schedule[1]: ",
    ),
    ("impairment-str", {"impairment": "loss"}, "impairment: "),
    ("impairment-start-nan", {"impairment": {"loss": 0.5, "start": NAN}}, "impairment.start: "),
    ("impairment-retries-str", {"impairment": {"max_retries": "3"}}, "impairment.max_retries: "),
    ("impairment-ble-int", {"impairment": {"ble_calibrated": 1}}, "impairment.ble_calibrated: "),
    # f < n/2 is the one bound checked where the run is built, not in the spec.
    ("over-budget-f", {"n": 4, "f": 2}, "f: "),
]


@pytest.fixture
def nothing_scheduled(monkeypatch):
    """Fail the test if any event reaches the queue."""

    def push(self, *args, **kwargs):
        raise AssertionError("a malformed spec reached the event queue")

    monkeypatch.setattr(BucketedEventQueue, "push", push)


@pytest.mark.parametrize(
    "overlay, path", [row[1:] for row in PROBES], ids=[row[0] for row in PROBES]
)
def test_a_malformed_spec_is_one_spec_error_at_its_json_path(overlay, path, nothing_scheduled):
    with pytest.raises(SpecError) as caught:
        if callable(overlay):
            spec = overlay()
        else:
            document = {**DeploymentSpec(n=5, f=1, k=2, target_height=3).to_dict(), **overlay}
            spec = DeploymentSpec.from_dict(json.loads(json.dumps(document)))
        run_protocol(spec)
    assert str(caught.value).startswith(path), str(caught.value)


def test_an_unknown_signature_scheme_lists_the_known_ones():
    with pytest.raises(SpecError) as caught:
        DeploymentSpec(signature_scheme="nope")
    assert all(name in str(caught.value) for name in available_schemes())


@pytest.mark.parametrize("document", [[], "eesmr", 7, None], ids=["list", "str", "int", "null"])
def test_a_spec_document_that_is_not_an_object_is_a_spec_error(document):
    with pytest.raises(SpecError, match="must be a JSON object"):
        DeploymentSpec.from_dict(document)


FILE_LOADERS = {
    "spec": lambda path: main(["run", "--spec", str(path)]),
    "trace": lambda path: TraceReplay(path=str(path)),
    "corpus": CorpusEntry.load,
}


@pytest.mark.parametrize("loader", FILE_LOADERS)
@pytest.mark.parametrize(
    "content", [None, "{not json", '"a string"'], ids=["missing", "undecodable", "wrong-top"]
)
def test_a_bad_file_is_a_spec_error_naming_the_file(loader, content, tmp_path, capsys):
    """Missing, undecodable or the wrong top level: one ``SpecError``
    prefixed with the file — from ``repro run --spec`` the exit-2 one-liner."""
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    if loader == "spec":
        assert FILE_LOADERS[loader](path) == 2
        message = capsys.readouterr().err.removeprefix("repro: ")
    else:
        with pytest.raises(SpecError) as caught:
            FILE_LOADERS[loader](path)
        message = str(caught.value)
    assert message.startswith(f"{path}: "), message


@pytest.mark.parametrize("key", ["format", "id", "spec"])
def test_a_corpus_entry_lacking_a_required_key_names_the_file(key, tmp_path):
    entry = {"format": 1, "expect": "clean", "id": "abc", "spec": {}}
    del entry[key]
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(entry))
    with pytest.raises(SpecError) as caught:
        CorpusEntry.load(path)
    assert str(caught.value).startswith(f"{path}: ") and key in str(caught.value)


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("found", "x", "found"),
        ("found", {"failures": "eesmr"}, "found.failures"),
        ("id", "abc", "id"),
        ("note", 7, "note"),
    ],
    ids=["found-not-an-object", "failures-not-pairs", "id-not-the-content-hash", "note-not-a-string"],
)
def test_a_malformed_corpus_entry_field_names_the_file_and_field(key, value, field, tmp_path):
    entry = {"format": 1, "expect": "clean", "spec": {}, "found": {}, "note": ""}
    entry["id"] = _content_id({"spec": entry["spec"], "expect": entry["expect"]})
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(entry))
    CorpusEntry.load(path)  # well-formed as written
    entry[key] = value
    path.write_text(json.dumps(entry))
    with pytest.raises(SpecError) as caught:
        CorpusEntry.load(path)
    assert str(caught.value).startswith(f"{path}: {field}: "), str(caught.value)


@pytest.mark.parametrize(
    "argv, start",
    [
        (["--workload", "open-loop:abc"], "repro: bad open-loop workload"),
        (["--workload", "open-loop:-1"], "repro: rate: "),
        (["--impair", "loss:2"], "repro: loss: "),
        (["--impair", "loss:x"], "repro: bad --impair clause"),
        (["--scheme", "nope"], "repro: signature_scheme: "),
        (["-n", "4", "-f", "2", "-k", "2"], "repro: f: "),
        (["-n", "4", "-k", "4"], "repro: k: "),
    ],
    ids=["workload-grammar", "rate", "impair-range", "impair-grammar", "scheme", "f", "k"],
)
def test_repro_run_turns_a_spec_error_into_one_stderr_line(argv, start, capsys, nothing_scheduled):
    assert main(["run", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(start) and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err


def test_repro_run_refuses_an_under_provisioned_adaptive_schedule(tmp_path, capsys):
    """The builder finds this one (the budget is only known with the
    schedule's controllers), and it is the same exit-2 one-liner."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "n": 7, "f": 1, "block_interval": 2.0,
        "fault_schedule": [{"kind": "LeaderFollowingCrash", "budget": 2}],
    }))
    assert main(["run", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: f: schedule may field 2 Byzantine nodes")
    assert captured.err.endswith("raise f to at least 2\n") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, axis",
    [
        (["matrix", "--faults", "bogus"], "faults"),
        (["matrix", "--workloads", "bogus"], "workloads"),
        (["matrix", "--impairments", "bogus"], "impairments"),
        (["fuzz", "--kinds", "Bogus", "--iterations", "1"], "kinds"),
    ],
    ids=["faults", "workloads", "impairments", "kinds"],
)
def test_repro_turns_an_unknown_axis_name_into_one_stderr_line(argv, axis, capsys, nothing_scheduled):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro: {axis}: unknown ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# ------------------------------------------------------------- one list
#: ``json.dumps(spec_fingerprint(spec), sort_keys=True)`` recorded at the
#: commit before the fingerprint was derived from ``to_dict``: one spec per
#: omit rule.  Golden trace fingerprints hash this dict, so it may not move.
_PLAN = '{"behaviour": "crash", "crash_time": 0.0, "faulty": [], "trigger_round": 3}'
_HEAD = (
    '{"batch_size": 1, "block_interval": 0.0, "command_payload_bytes": 16, "delta": null, '
    f'"f": 1, "faults": {_PLAN}, "hop_delay": 1.0, '
)
_TAIL = (
    '"jitter": true, "k": 2, "medium": "ble", "n": 7, "protocol": "eesmr", "seed": 0, '
    '"signature_scheme": "rsa-1024", "target_height": 5, "topology": "ring-kcast"'
)


def _fingerprint_pins():
    from repro.net.impairment import ImpairmentSpec
    from repro.testkit import faults
    from repro.workload import ClosedLoopPreload, OpenLoopPoisson

    return {
        "default": (DeploymentSpec(), _HEAD + _TAIL + "}"),
        "random-kcast": (
            DeploymentSpec(topology="random-kcast", edges_per_node=2, topology_seed=11),
            (_HEAD + _TAIL)
            .replace('"f": 1', '"edges_per_node": 2, "f": 1')
            .replace("ring-kcast", "random-kcast")
            + ', "topology_seed": 11}',
        ),
        "workload": (
            DeploymentSpec(workload=OpenLoopPoisson(rate=2.0, clients=3)),
            _HEAD + _TAIL + ', "workload": {"clients": 3, "duration": null, "kind": "open-loop", '
            '"payload_size_bytes": null, "rate": 2.0}}',
        ),
        "default-workload": (DeploymentSpec(workload=ClosedLoopPreload()), _HEAD + _TAIL + "}"),
        "txpool-limit": (DeploymentSpec(txpool_limit=8), _HEAD + _TAIL + ', "txpool_limit": 8}'),
        "impairment": (
            DeploymentSpec(impairment=ImpairmentSpec(loss=0.2, max_retries=2)),
            _HEAD + '"impairment": {"loss": 0.2, "max_retries": 2}, ' + _TAIL + "}",
        ),
        "schedule": (
            DeploymentSpec(
                fault_schedule=faults.crash_at(1, 2.0).add(faults.PartitionWindow(3, 1.0, 4.0)),
            ),
            (_HEAD + _TAIL + "}").replace(
                _PLAN,
                '[{"kind": "CrashAt", "node": 1, "time": 2.0}, '
                '{"heal": 4.0, "kind": "PartitionWindow", "node": 3, "start": 1.0}]',
            ),
        ),
        # A plan is written as the schedule it lowers to.
        "plan": (
            DeploymentSpec(fault_plan=FaultPlan(faulty=(0,), behaviour="equivocate")),
            (_HEAD + _TAIL + "}").replace(
                _PLAN, '[{"baseline_failstop": 0.0, "kind": "EquivocateAt", "node": 0, "round": 3}]'
            ),
        ),
    }


@pytest.mark.parametrize("name", list(_fingerprint_pins()))
def test_spec_fingerprint_is_pinned_per_omit_rule(name):
    spec, pinned = _fingerprint_pins()[name]
    assert json.dumps(spec_fingerprint(spec), sort_keys=True) == pinned


def test_default_to_dict_is_pinned_key_for_key():
    assert DeploymentSpec().to_dict() == {
        "protocol": "eesmr", "n": 7, "f": 1, "k": 2, "topology": "ring-kcast",
        "edges_per_node": 1, "topology_seed": None, "medium": "ble", "hop_delay": 1.0,
        "delta": None, "signature_scheme": "rsa-1024", "batch_size": 1,
        "command_payload_bytes": 16, "target_height": 5, "block_interval": 0.0, "seed": 0,
        "jitter": True, "fault_schedule": None,
        "workload": None, "txpool_limit": None, "impairment": None,
    }  # fmt: skip


@dataclasses.dataclass
class _RegionalSpec(DeploymentSpec):
    """A spec with one more declared field, and nothing else."""

    region_count: int = dataclasses.field(default=1, metadata={"min": 1})


def test_a_field_is_one_declaration():
    """The executable form of "one list": a subclass declares a scalar and
    serialisation, rebuilding, validation and the fingerprint follow."""
    spec = _RegionalSpec(n=5, region_count=3)
    document = json.loads(json.dumps(spec.to_dict()))
    assert document["region_count"] == 3
    assert _RegionalSpec.from_dict(document) == spec
    assert spec_fingerprint(spec)["region_count"] == 3
    for bad in ("3", True, 0, 2.0):
        with pytest.raises(SpecError, match="^region_count: "):
            _RegionalSpec.from_dict({**document, "region_count": bad})
    with pytest.raises(SpecError, match="region_count"):
        DeploymentSpec.from_dict(document)


def test_build_topology_variants():
    ring = build_topology(DeploymentSpec(n=7, k=3, topology="ring-kcast"))
    assert ring.k == 3 and len(ring.nodes) == 7
    full = build_topology(DeploymentSpec(n=5, k=2, topology="fully-connected"))
    assert full.diameter() == 1
    uni = build_topology(DeploymentSpec(n=5, k=2, topology="unicast-ring"))
    assert all(e.degree == 1 for e in uni.edges)
    with pytest.raises(ValueError):
        build_topology(DeploymentSpec(n=5, k=2, topology="torus"))


def test_compute_delta_covers_diameter():
    spec = DeploymentSpec(n=9, k=2, hop_delay=1.0)
    topology = build_topology(spec)
    delta = compute_delta(spec, topology)
    assert delta >= topology.diameter() * spec.hop_delay
    explicit = DeploymentSpec(n=9, k=2, delta=42.0)
    assert compute_delta(explicit, topology) == 42.0


@pytest.mark.parametrize(
    "n, k, delta",
    [(25, 2, 14.0), (100, 2, 52.0), (7, 2, 5.0), (7, 3, 4.0), (5, 2, 4.0)],
)
def test_compute_delta_of_the_benchmark_topologies_is_pinned(n, k, delta):
    """Δ sets every timer: the ring k-casts `bench/` runs must keep these values."""
    spec = DeploymentSpec(n=n, f=1, k=k)
    assert compute_delta(spec, build_topology(spec)) == delta


def test_run_protocol_convenience_function():
    result = run_protocol(honest_spec(n=5, f=1, k=2, blocks=2, seed=51))
    assert result.committed_blocks == 2
    assert result.safety.consistent


def test_run_protocol_is_sugar_for_the_one_door():
    """``run_protocol`` takes ``SessionBuilder``'s keywords and runs the very
    session the builder would: same golden trace through either spelling."""
    spec = DeploymentSpec(protocol="eesmr", n=5, f=1, k=2, target_height=3, seed=17)
    sugar = run_protocol(spec, recorder=TraceRecorder())
    session = SessionBuilder(spec, recorder=TraceRecorder()).build()
    assert isinstance(session, Session)
    door = session.run_to_quiescence().finish()
    assert sugar.trace.fingerprint() == door.trace.fingerprint() == GOLDEN["eesmr"]
    with pytest.raises(TypeError):
        run_protocol(spec, not_a_builder_keyword=1)


def test_results_are_deterministic_for_same_seed():
    spec = honest_spec(n=6, f=1, k=2, blocks=3, seed=52)
    a = run_protocol(spec)
    b = run_protocol(spec)
    assert a.correct_energy_mj == pytest.approx(b.correct_energy_mj)
    assert a.network.physical_bytes == b.network.physical_bytes
    assert a.sim_time == pytest.approx(b.sim_time)


def test_different_seeds_change_timing_but_not_outcome():
    a = run_protocol(honest_spec(n=6, f=1, k=2, blocks=3, seed=1))
    b = run_protocol(honest_spec(n=6, f=1, k=2, blocks=3, seed=2))
    assert a.committed_blocks == b.committed_blocks == 3
    assert a.safety.consistent and b.safety.consistent


def test_result_derived_metrics_consistent():
    result = run_protocol(honest_spec(n=5, f=1, k=2, blocks=2, seed=54))
    assert result.correct_energy_mj == pytest.approx(result.energy.correct_total_joules * 1000)
    assert result.energy_per_block_mj == pytest.approx(result.correct_energy_mj / 2)
    assert result.leader_energy_mj > 0
    assert set(result.committed_heights) == set(range(5))


def test_energy_is_reported_per_distinct_command(capsys):
    """Every slot orders new work, so a block of two commands costs half its
    energy per command; an exhausted workload stops the denominator growing."""
    result = run_protocol(honest_spec(n=5, f=1, k=2, blocks=3, seed=54, batch_size=2))
    assert result.committed_command_ids == [f"c0-{i}" for i in range(6)]
    assert result.distinct_commands == 6
    assert result.energy_per_distinct_command_mj == pytest.approx(result.energy_per_block_mj / 2)
    short = honest_spec(
        protocol="trusted-baseline", n=5, f=1, k=2, blocks=3, seed=54,
        workload=TraceReplay(entries=({"time": 0.0},)),
    )
    starved = run_protocol(short)
    assert (starved.committed_blocks, starved.distinct_commands) == (3, 1)
    assert starved.energy_per_distinct_command_mj == pytest.approx(starved.correct_energy_mj)
    assert main(["run", "--protocol", "eesmr", "-n", "5", "-f", "1", "-k", "2", "--blocks", "3"]) == 0
    out = capsys.readouterr().out
    assert "energy per block    : " in out
    assert "energy per command  : " in out and "(3 distinct commands)" in out


def test_jitter_disabled_gives_deterministic_hop_latency():
    result = run_protocol(honest_spec(n=5, f=1, k=2, blocks=2, seed=55, jitter=False))
    assert result.committed_blocks == 2
