"""Run generated schedules across protocols and detect invariant violations.

The :class:`Detector` is the middle of the fuzzing loop: given a
:class:`~repro.testkit.faults.FaultSchedule` it runs one session per
protocol through :func:`repro.testkit.invariants.judge_reports` — the same
run-and-check function the scenario matrix and the corpus replay use —
and folds the failing reports into a :class:`Detection`.

Two detector properties matter for fuzzing:

* **It never dies on a finding.**  A planted (or real) bug can crash the
  run itself — a local :class:`~repro.core.ledger.SafetyViolation` raised
  mid-event, or a livelock tripping the event budget.  Those surface as
  *violations* (mapped onto the agreement / a synthetic ``no-livelock``
  invariant) rather than detector exceptions, so the shrinker can chase
  them like any other failure.
* **Schedules are rebuilt per protocol.**  Each run deserialises the
  schedule from its canonical description
  (``schedule_from_dict(describe())``), so adaptive atoms never share
  victim state across protocol runs and every detection doubles as a
  round-trip exercise of the corpus schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.session.spec import DeploymentSpec
from repro.fuzz.generator import FuzzConfig
from repro.session.builder import SessionBuilder
from repro.testkit.faults import FaultSchedule, schedule_from_dict
from repro.testkit.invariants import InvariantReport, judge_reports
from repro.testkit.scenarios import schedule_feasibility


@dataclass
class ProtocolVerdict:
    """What one protocol run of a schedule concluded."""

    protocol: str
    #: Feasibility skip reason (the run never happened), or ``None``.
    skip_reason: Optional[str] = None
    #: Failing invariant reports only; empty means the run was clean.
    violations: List[InvariantReport] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    def describe(self) -> dict:
        """Canonical JSON-friendly verdict (for reports and reproducibility)."""
        return {
            "protocol": self.protocol,
            "skip_reason": self.skip_reason,
            "violations": [
                {"invariant": report.name, "detail": report.detail}
                for report in self.violations
            ],
        }


@dataclass
class Detection:
    """Aggregate verdict of one schedule across every configured protocol."""

    schedule: FaultSchedule
    verdicts: List[ProtocolVerdict] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(verdict.failed for verdict in self.verdicts)

    def failure_key(self) -> FrozenSet[Tuple[str, str]]:
        """The set of (protocol, invariant) pairs that failed.

        The shrinker preserves (a subset of) this key across reductions,
        so a shrunk schedule reproduces the *same* bug that was found, not
        some other failure the surgery introduced.
        """
        return frozenset(
            (verdict.protocol, report.name)
            for verdict in self.verdicts
            for report in verdict.violations
        )

    def describe(self) -> dict:
        return {
            "schedule": self.schedule.describe(),
            "verdicts": [verdict.describe() for verdict in self.verdicts],
        }


class Detector:
    """Runs schedules through the session API and checks the invariants.

    Args:
        config: Deployment knobs (n, topology, medium, protocols, ...).
        builder_factory: The session-builder class (or factory callable)
            used for every run.  Tests plant bugs by passing a
            :class:`SessionBuilder` subclass that substitutes mutated
            replica classes or network behaviour — the fuzzer then has
            something real to find.

    A run that exceeds the session's event budget is reported as a
    ``no-livelock`` violation instead of raising.
    """

    def __init__(
        self,
        config: FuzzConfig,
        *,
        builder_factory: Callable[..., SessionBuilder] = SessionBuilder,
    ) -> None:
        self.config = config
        self.builder_factory = builder_factory
        #: Protocol runs executed since construction (shrink-cost metric).
        self.runs = 0

    # ---------------------------------------------------------------- running
    def detect(self, schedule: Optional[FaultSchedule]) -> Detection:
        """Run ``schedule`` under every configured protocol and judge it."""
        verdicts: List[ProtocolVerdict] = []
        for protocol in self.config.protocols:
            spec = self.config.spec_for(self._fresh_schedule(schedule), protocol)
            reason = schedule_feasibility(spec)
            if reason is not None:
                verdicts.append(ProtocolVerdict(protocol, skip_reason=reason))
                continue
            verdicts.append(self._run_one(spec, protocol))
        return Detection(
            schedule if schedule is not None else FaultSchedule(), verdicts
        )

    def _fresh_schedule(self, schedule: Optional[FaultSchedule]) -> Optional[FaultSchedule]:
        """An independent copy via the canonical description round trip."""
        if schedule is None:
            return None
        return schedule_from_dict(schedule.describe())

    def _run_one(self, spec: DeploymentSpec, protocol: str) -> ProtocolVerdict:
        self.runs += 1
        reports = judge_reports(spec, label=f"fuzz:{protocol}", builder=self.builder_factory)
        return ProtocolVerdict(
            protocol, violations=[report for report in reports if not report.ok]
        )
