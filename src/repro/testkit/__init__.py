"""Scenario-matrix testkit: deterministic fault injection and
cross-protocol invariant checking.

The testkit is the regression infrastructure every scale/perf PR runs
against.  It provides:

* :mod:`repro.testkit.trace` — :class:`TraceRecorder` and :class:`RunTrace`,
  structured byte-comparable per-run traces;
* :mod:`repro.testkit.invariants` — the composable invariant battery
  (agreement, liveness, quorum certificates, monotone time, energy
  conservation);
* :mod:`repro.testkit.faults` — the :class:`FaultSchedule` DSL of timed,
  per-node, composable faults;
* :mod:`repro.testkit.scenarios` — :class:`ScenarioMatrix`, the
  protocols × faults × media × topologies cross-product runner.

See ``docs/testkit.md`` for a guide.
"""

from repro.testkit.faults import (
    CrashAt,
    EquivocateAt,
    Fault,
    FaultSchedule,
    PartitionWindow,
    RelayDropWindow,
    SilentFrom,
    StallAt,
    crash_at,
    drop_window,
    equivocate_at,
    no_faults,
    partition,
    silent,
    stall_at,
)
from repro.testkit.invariants import (
    DEFAULT_INVARIANTS,
    AgreementInvariant,
    EnergyConservationInvariant,
    Evidence,
    Invariant,
    InvariantReport,
    InvariantViolation,
    LivenessInvariant,
    MonotoneVirtualTimeInvariant,
    QuorumCertificateInvariant,
    UniqueCommitInvariant,
    assert_all,
    check_all,
    judge,
    judge_reports,
)
from repro.testkit.scenarios import (
    ALL_FAULTS,
    COMPOSED_FAULTS,
    DEFAULT_FAULTS,
    FAULT_LIBRARY,
    MATRIX_TOPOLOGIES,
    CellOutcome,
    MatrixReport,
    ScenarioCell,
    ScenarioMatrix,
    SkippedCell,
)
from repro.testkit.trace import QCRecord, RunTrace, TraceRecorder, spec_fingerprint

__all__ = [
    "ALL_FAULTS",
    "COMPOSED_FAULTS",
    "DEFAULT_FAULTS",
    "DEFAULT_INVARIANTS",
    "FAULT_LIBRARY",
    "MATRIX_TOPOLOGIES",
    "AgreementInvariant",
    "CellOutcome",
    "CrashAt",
    "EnergyConservationInvariant",
    "EquivocateAt",
    "Evidence",
    "Fault",
    "FaultSchedule",
    "Invariant",
    "InvariantReport",
    "InvariantViolation",
    "LivenessInvariant",
    "MatrixReport",
    "MonotoneVirtualTimeInvariant",
    "PartitionWindow",
    "QCRecord",
    "QuorumCertificateInvariant",
    "RelayDropWindow",
    "RunTrace",
    "ScenarioCell",
    "ScenarioMatrix",
    "SilentFrom",
    "SkippedCell",
    "StallAt",
    "TraceRecorder",
    "UniqueCommitInvariant",
    "assert_all",
    "check_all",
    "crash_at",
    "drop_window",
    "equivocate_at",
    "judge",
    "judge_reports",
    "no_faults",
    "partition",
    "silent",
    "spec_fingerprint",
    "stall_at",
]
