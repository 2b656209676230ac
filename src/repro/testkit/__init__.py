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
    partition,
)
from repro.testkit.invariants import (
    InvariantReport,
    judge,
    judge_reports,
)
from repro.testkit.scenarios import (
    DEFAULT_FAULTS,
    ScenarioMatrix,
)

__all__ = [
    "DEFAULT_FAULTS",
    "CrashAt",
    "EquivocateAt",
    "Fault",
    "FaultSchedule",
    "InvariantReport",
    "PartitionWindow",
    "RelayDropWindow",
    "ScenarioMatrix",
    "SilentFrom",
    "StallAt",
    "judge",
    "judge_reports",
    "partition",
]
