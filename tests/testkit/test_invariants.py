"""Tests for the invariant battery: passing runs pass, doctored runs fail."""

import copy

import pytest

from repro.eval.runner import run_protocol
from repro.testkit.invariants import (
    DEFAULT_INVARIANTS,
    AgreementInvariant,
    EnergyConservationInvariant,
    Evidence,
    InvariantViolation,
    LivenessInvariant,
    MonotoneVirtualTimeInvariant,
    QuorumCertificateInvariant,
    UniqueCommitInvariant,
    check_all,
)
from repro.testkit.trace import TraceRecorder
from repro.testkit.faults import crash_at, silent

from tests.conftest import honest_spec


@pytest.fixture
def evidence():
    spec = honest_spec()
    result = run_protocol(spec, recorder=TraceRecorder())
    return Evidence(spec=spec, result=result, trace=result.trace, label="unit")


def doctored(evidence):
    """A deep copy whose trace can be tampered with safely."""
    return Evidence(
        spec=evidence.spec,
        result=evidence.result,
        trace=copy.deepcopy(evidence.trace),
        label=evidence.label,
    )


def test_honest_run_satisfies_every_invariant(evidence):
    reports = check_all(evidence)
    assert len(reports) == len(DEFAULT_INVARIANTS)
    assert all(report.ok for report in reports)


def test_faulty_runs_satisfy_every_invariant():
    for schedule in (crash_at(0, time=0.0), silent(4)):
        spec = honest_spec(fault_schedule=schedule)
        result = run_protocol(spec, recorder=TraceRecorder())
        reports = check_all(Evidence(spec=spec, result=result, trace=result.trace))
        assert [r.detail for r in reports if not r.ok] == []


def test_agreement_detects_forked_chain(evidence):
    bad = doctored(evidence)
    bad.trace.committed_chain[1][0] = [1, "f" * 64]  # node 1 forked at height 1
    with pytest.raises(InvariantViolation, match="conflicting commits at height 1"):
        AgreementInvariant().check(bad)


def test_agreement_detects_divergent_command_logs(evidence):
    bad = doctored(evidence)
    bad.trace.committed_commands[2] = ["rogue-command"] + bad.trace.committed_commands[2][1:]
    with pytest.raises(InvariantViolation, match="diverge"):
        AgreementInvariant().check(bad)


def test_agreement_trusts_the_safety_checker_verdict(evidence):
    bad = doctored(evidence)
    bad.trace.safety["consistent"] = False
    bad.trace.safety["details"] = ["height 1: conflicting commits"]
    with pytest.raises(InvariantViolation, match="fork"):
        AgreementInvariant().check(bad)


def test_liveness_detects_stalled_node(evidence):
    bad = doctored(evidence)
    bad.trace.committed_heights[3] = 1
    with pytest.raises(InvariantViolation, match="node 3 stalled"):
        LivenessInvariant().check(bad)


def test_liveness_detects_foreign_commands(evidence):
    bad = doctored(evidence)
    bad.trace.committed_commands[0][0] = "not-from-the-workload"
    with pytest.raises(InvariantViolation, match="outside the workload"):
        LivenessInvariant().check(bad)


def test_unique_commit_detects_a_command_ordered_twice(evidence):
    bad = doctored(evidence)
    log = bad.trace.committed_commands[2]
    log.append(log[0])
    with pytest.raises(InvariantViolation, match=f"node 2 committed command '{log[0]}' twice"):
        UniqueCommitInvariant().check(bad)
    assert [r.name for r in check_all(bad) if not r.ok] == ["unique-commit"]


def test_unique_commit_ignores_byzantine_logs():
    spec = honest_spec(fault_schedule=silent(4))
    result = run_protocol(spec, recorder=TraceRecorder())
    bad = doctored(Evidence(spec=spec, result=result, trace=result.trace))
    bad.trace.committed_commands[4] = ["c0-0", "c0-0"]
    UniqueCommitInvariant().check(bad)


def test_quorum_invariant_detects_underfull_certificate(evidence):
    spec = honest_spec(fault_schedule=crash_at(0, time=0.0))
    result = run_protocol(spec, recorder=TraceRecorder())
    good = Evidence(spec=spec, result=result, trace=result.trace)
    QuorumCertificateInvariant().check(good)
    bad = doctored(good)
    assert bad.trace.qcs
    bad.trace.qcs[0].signers = [0]
    with pytest.raises(InvariantViolation, match="distinct signers"):
        QuorumCertificateInvariant().check(bad)
    bad2 = doctored(good)
    bad2.trace.qcs[0].valid = False
    with pytest.raises(InvariantViolation, match="invalid"):
        QuorumCertificateInvariant().check(bad2)


def test_monotone_time_detects_backwards_event(evidence):
    bad = doctored(evidence)
    bad.trace.events.append([bad.trace.events[-1][0] - 1.0, "time-travel"])
    with pytest.raises(InvariantViolation, match="time went backwards"):
        MonotoneVirtualTimeInvariant().check(bad)


def test_monotone_time_detects_truncated_quiescence(evidence):
    bad = doctored(evidence)
    bad.trace.sim_time = bad.trace.events[-1][0] - 1.0
    with pytest.raises(InvariantViolation, match="quiescence"):
        MonotoneVirtualTimeInvariant().check(bad)


def test_energy_conservation_detects_negative_meter(evidence):
    bad = doctored(evidence)
    bad.trace.energy_per_node_j[0] = -0.5
    with pytest.raises(InvariantViolation, match="negative meter"):
        EnergyConservationInvariant().check(bad)


def test_energy_conservation_detects_ledger_mismatch(evidence):
    bad = doctored(evidence)
    bad.trace.energy_total_j += 1.0
    with pytest.raises(InvariantViolation, match="cluster ledger"):
        EnergyConservationInvariant().check(bad)


def test_energy_conservation_detects_breakdown_leak(evidence):
    bad = doctored(evidence)
    bad.trace.energy_breakdown_j["transmit"] += 0.25
    with pytest.raises(InvariantViolation, match="breakdown"):
        EnergyConservationInvariant().check(bad)


def test_check_all_folds_violations_into_reports(evidence):
    bad = doctored(evidence)
    bad.trace.committed_heights[3] = 0
    reports = check_all(bad)
    failed = [report for report in reports if not report.ok]
    assert [report.name for report in failed] == ["liveness"]
    assert "stalled" in failed[0].detail
