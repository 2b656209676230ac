"""Scenario-matrix testkit: deterministic fault injection and
cross-protocol invariant checking.

The testkit is the regression infrastructure every scale/perf PR runs
against.  It provides:

* :mod:`repro.testkit.trace` — :class:`TraceRecorder` and :class:`RunTrace`,
  structured byte-comparable per-run traces;
* :mod:`repro.testkit.invariants` — the composable invariant battery
  (agreement, liveness, unique commit, quorum certificates, energy
  conservation);
* :mod:`repro.testkit.faults` — the :class:`FaultSchedule` DSL of timed,
  per-node, composable faults;
* :mod:`repro.testkit.scenarios` — :func:`judge`, the one run-and-check
  of a spec, and :class:`ScenarioMatrix`, the protocols × faults × media
  × topologies cross-product judged through it.

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
from repro.testkit.scenarios import (
    DEFAULT_FAULTS,
    ScenarioMatrix,
    judge,
)

__all__ = [
    "DEFAULT_FAULTS",
    "CrashAt",
    "EquivocateAt",
    "Fault",
    "FaultSchedule",
    "PartitionWindow",
    "RelayDropWindow",
    "ScenarioMatrix",
    "SilentFrom",
    "StallAt",
    "judge",
    "partition",
]
