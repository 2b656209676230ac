"""Tests for the TraceRecorder and RunTrace value object."""

import json

from repro.energy.meter import price
from repro.eval.runner import run_protocol
from repro.testkit.trace import TraceRecorder
from repro.testkit.faults import crash_at

from tests.conftest import honest_spec


def record(spec):
    return run_protocol(spec, recorder=TraceRecorder())


def test_runner_without_recorder_has_no_trace():
    result = run_protocol(honest_spec())
    assert result.trace is None


def test_trace_captures_committed_logs_and_energy():
    result = record(honest_spec())
    trace = result.trace
    assert set(trace.committed_heights) == {0, 1, 2, 3, 4}
    for pid in range(5):
        assert trace.committed_heights[pid] == 3
        assert len(trace.committed_chain[pid]) == 3
        assert trace.committed_chain[pid][0][0] == 1  # first entry is height 1
        assert len(trace.committed_commands[pid]) == 3
    assert set(trace.energy_counts) == {0, 1, 2, 3, 4}
    for pid, entries in trace.energy_counts.items():
        assert entries == sorted(entries)
        assert all(isinstance(times, int) and times > 0 for _, _, times in entries)
        counts = {(category, unit_j): times for category, unit_j, times in entries}
        assert sum(price((counts,)).values()) == result.energy.per_node_joules[pid] > 0
    # The unit costs serialise by repr, so the encoded counts decode exactly.
    decoded = json.loads(trace.canonical_json())["energy_counts"]
    assert decoded == {str(pid): entries for pid, entries in trace.energy_counts.items()}
    assert trace.network["broadcasts"] > 0
    assert trace.safety["consistent"] is True


def test_trace_records_simulator_events():
    result = record(honest_spec())
    trace = result.trace
    assert trace.events, "event trace should be populated"
    assert trace.executed_events == len(trace.events)
    times = [time for time, _ in trace.events]
    assert times == sorted(times)
    assert any("net:" in label for _, label in trace.events)


def test_trace_harvests_view_change_certificates():
    spec = honest_spec(fault_schedule=crash_at(0, time=0.0))
    result = record(spec)
    assert result.view_changes == 1
    assert result.trace.qcs, "a view change must leave quorum certificates behind"
    quorum = spec.f + 1
    for qc in result.trace.qcs:
        assert qc.valid
        assert len(set(qc.signers)) >= quorum


def test_canonical_json_is_valid_and_sorted():
    trace = record(honest_spec()).trace
    encoded = trace.canonical_json()
    decoded = json.loads(encoded)
    assert decoded["spec"]["protocol"] == "eesmr"
    assert encoded == json.dumps(decoded, sort_keys=True, separators=(",", ":"))


def test_fingerprint_reflects_content():
    trace = record(honest_spec()).trace
    fingerprint = trace.fingerprint()
    trace.energy_counts[0][0][2] += 1
    assert trace.fingerprint() != fingerprint


def test_spec_description_includes_faults_and_medium():
    spec = honest_spec(medium="wifi", fault_schedule=crash_at(1, time=2.0))
    description = spec.to_dict()
    assert description["medium"] == "wifi"
    assert description["fault_schedule"] == [{"kind": "CrashAt", "node": 1, "time": 2.0}]
    assert honest_spec().to_dict()["fault_schedule"] is None
