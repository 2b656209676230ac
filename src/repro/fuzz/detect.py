"""Run generated schedules across protocols and detect invariant violations.

The :class:`Detector` is the middle of the fuzzing loop: given a
:class:`~repro.testkit.faults.FaultSchedule` it generates one spec per
protocol, labelled ``fuzz:<protocol>``, and judges them through
:func:`repro.testkit.scenarios.judge_specs` — the runner the scenario
matrix and the corpus replay also use — into a :class:`Detection` of one
:class:`~repro.testkit.scenarios.Verdict` per protocol.  It never dies on
a finding: a run that raises mid-run is a failing verdict the shrinker
can chase like any other.

Schedules are rebuilt per protocol from their canonical description
(``schedule_from_dict(describe())``), so adaptive atoms never share
victim state across protocol runs and every detection doubles as a
round-trip exercise of the corpus schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.fuzz.generator import FuzzConfig
from repro.session.builder import SessionBuilder
from repro.testkit.faults import FaultSchedule, schedule_from_dict
from repro.testkit.scenarios import Verdict, judge_specs


@dataclass
class Detection:
    """Aggregate verdict of one schedule across every configured protocol."""

    schedule: FaultSchedule
    #: One verdict per configured protocol, in configuration order.
    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return not all(verdict.ok for verdict in self.verdicts)

    def failure_key(self) -> FrozenSet[Tuple[str, str]]:
        """The set of (protocol, invariant) pairs that failed.

        The shrinker preserves (a subset of) this key across reductions,
        so a shrunk schedule reproduces the *same* bug that was found, not
        some other failure the surgery introduced.
        """
        return frozenset(
            (verdict.spec.protocol, report.name)
            for verdict in self.verdicts
            for report in verdict.violations()
        )

    def describe(self) -> dict:
        """Canonical JSON-friendly form (for reports and reproducibility)."""
        return {
            "schedule": self.schedule.describe(),
            "verdicts": [
                {
                    "protocol": verdict.spec.protocol,
                    "skip_reason": verdict.skip_reason,
                    "violations": [
                        {"invariant": report.name, "detail": report.detail}
                        for report in verdict.violations()
                    ],
                }
                for verdict in self.verdicts
            ],
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
        """Judge ``schedule`` under every configured protocol."""
        runs = [
            (f"fuzz:{protocol}", self.config.spec_for(self._fresh_schedule(schedule), protocol))
            for protocol in self.config.protocols
        ]
        verdicts = judge_specs(runs, 1, self.builder_factory)
        self.runs += sum(verdict.skip_reason is None for verdict in verdicts)
        return Detection(
            schedule if schedule is not None else FaultSchedule(), verdicts
        )

    def _fresh_schedule(self, schedule: Optional[FaultSchedule]) -> Optional[FaultSchedule]:
        """An independent copy via the canonical description round trip."""
        if schedule is None:
            return None
        return schedule_from_dict(schedule.describe())
