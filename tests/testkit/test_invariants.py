"""Tests for the invariant battery: passing runs pass, doctored runs fail."""

import copy

import pytest

from repro.core.messages import MessageType, make_qc
from repro.eval.runner import run_protocol
from repro.session import Session
from repro.testkit.invariants import (
    DEFAULT_INVARIANTS,
    AgreementInvariant,
    EnergyConservationInvariant,
    Evidence,
    InvariantViolation,
    LivenessInvariant,
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


def test_liveness_stall_names_only_the_nonzero_delivery_counters(evidence):
    bad = doctored(evidence)
    bad.trace.committed_heights[3] = 1
    stalled = f"[liveness @ unit] node 3 stalled at height 1 < target {evidence.spec.target_height}"
    with pytest.raises(InvariantViolation) as plain:
        LivenessInvariant().check(bad)
    assert str(plain.value) == stalled
    bad.trace.replica_stats[3].update(
        deliveries_dropped=4, deliveries_retransmitted=0, delivery_giveups=2
    )
    with pytest.raises(InvariantViolation) as lossy:
        LivenessInvariant().check(bad)
    assert str(lossy.value) == f"{stalled} (deliveries_dropped=4, delivery_giveups=2)"


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


def captured(spec, plant=None):
    """Evidence of ``spec``'s run, traced after ``plant(session)`` edits the finished replicas."""
    session = Session.from_spec(spec, recorder=TraceRecorder()).run()
    if plant is not None:
        plant(session)
    result = session.finish()
    return Evidence(spec=spec, result=result, trace=result.trace)


def certificate(session, msg_type, signers, block):
    """``signers``' ``msg_type`` votes over ``block``, as a certificate carrying it."""
    votes = [
        session.replicas[pid].sign_message(msg_type, block.block_hash, view=1)
        for pid in signers
    ]
    return make_qc(votes, block=block)


def test_quorum_invariant_detects_underfull_certificate(evidence):
    spec = honest_spec(fault_schedule=crash_at(0, time=0.0))
    good = captured(spec)
    assert good.trace.qcs
    QuorumCertificateInvariant().check(good)

    def plant_one_signer_certify(session):
        replica = session.replicas[1]
        replica.collected_commit_qcs.append(
            certificate(session, MessageType.CERTIFY, [2], replica.b_com)
        )

    bad = captured(spec, plant_one_signer_certify)
    assert len(bad.trace.qcs) == len(good.trace.qcs) + 1
    invalid = [(qc.holder, qc.cert_type, qc.signers) for qc in bad.trace.qcs if not qc.valid]
    assert invalid == [(1, "certify", [2])]
    with pytest.raises(InvariantViolation, match="node 1 holds an invalid certify QC"):
        QuorumCertificateInvariant().check(bad)
    bad2 = doctored(good)
    bad2.trace.qcs[0].valid = False
    with pytest.raises(InvariantViolation, match="invalid"):
        QuorumCertificateInvariant().check(bad2)


def test_quorum_invariant_judges_a_vote_certificate_by_its_holders_quorum():
    """A Sync HotStuff replica adopts a vote certificate only with ``vote_quorum``
    signers, so three (f + 1 at n = 7) is below the rule the auditor applies."""
    spec = honest_spec("sync-hotstuff", n=7, f=2, k=3)
    good = captured(spec)
    assert good.trace.qcs and all(report.ok for report in check_all(good))

    def plant_three_signer_vote(session):
        replica = session.replicas[3]
        assert session.config.quorum == 3 < replica.vote_quorum
        block = replica.b_com
        replica.certs[block.block_hash] = certificate(session, MessageType.SHS_VOTE, (0, 1, 2), block)

    bad = captured(spec, plant_three_signer_vote)
    assert [r.name for r in check_all(bad) if not r.ok] == ["quorum-certificates"]


def test_energy_conservation_detects_negative_meter(evidence):
    bad = doctored(evidence)
    bad.trace.energy_counts[0][0][2] = -1
    with pytest.raises(InvariantViolation, match="node 0 has a negative count"):
        EnergyConservationInvariant().check(bad)
    bad = doctored(evidence)
    bad.trace.energy_counts[0][0][1] = -1e-3
    with pytest.raises(InvariantViolation, match="negative count or unit cost"):
        EnergyConservationInvariant().check(bad)


def test_energy_conservation_detects_ledger_mismatch():
    """One extra operation on one node, priced or not, is a mismatch (here
    on the silent node 4, so the correct-node total stays exact)."""
    spec = honest_spec(fault_schedule=silent(4))
    result = run_protocol(spec, recorder=TraceRecorder())
    bad = doctored(Evidence(spec=spec, result=result, trace=result.trace))
    bad.trace.energy_counts[4][0][2] += 1
    with pytest.raises(InvariantViolation, match="node 4 reports"):
        EnergyConservationInvariant().check(bad)


def test_energy_conservation_detects_breakdown_leak(evidence):
    """A correct node's operation dropped from the counts leaks out of the
    correct-node total, which must equal the correct counts priced."""
    bad = doctored(evidence)
    bad.trace.energy_counts[1][-1][2] -= 1
    with pytest.raises(InvariantViolation, match="correct-node total"):
        EnergyConservationInvariant().check(bad)


def test_check_all_folds_violations_into_reports(evidence):
    bad = doctored(evidence)
    bad.trace.committed_heights[3] = 0
    reports = check_all(bad)
    failed = [report for report in reports if not report.ok]
    assert [report.name for report in failed] == ["liveness"]
    assert "stalled" in failed[0].detail
