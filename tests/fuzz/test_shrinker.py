"""Shrinker unit tests against a stub detector.

The stub judges schedules with a plain predicate (no protocol runs), so
these tests pin the shrinker's *mechanics* — which pass fires, what is
kept, how the failure key narrows — deterministically and fast.  The
planted-mutant tests exercise the same shrinker against the real
detector.
"""

import pytest

from repro.fuzz.detect import Detection, ProtocolVerdict
from repro.fuzz.generator import TIME_QUANTUM
from repro.fuzz.shrink import Shrinker
from repro.testkit.faults import (
    CrashAt,
    CrashRecoverWindow,
    EquivocateAt,
    FaultSchedule,
    LeaderFollowingCrash,
    PartitionWindow,
    RelayDropWindow,
)
from repro.testkit.invariants import InvariantReport


class StubDetector:
    """Fails a schedule iff ``predicate(schedule)`` holds."""

    def __init__(self, predicate, key=("eesmr", "agreement")):
        self.predicate = predicate
        self.key = key
        self.runs = 0

    def detect(self, schedule):
        self.runs += 1
        violations = []
        if self.predicate(schedule):
            violations = [InvariantReport(self.key[1], False, "stub")]
        return Detection(
            schedule=schedule, verdicts=[ProtocolVerdict(self.key[0], violations=violations)]
        )


def shrink(detector, schedule):
    """Shrink ``schedule`` from ``detector``'s first detection of it."""
    return Shrinker(detector).shrink(schedule, detector.detect(schedule))


def has_kind(kind):
    return lambda schedule: any(type(a).__name__ == kind for a in schedule.faults)


def test_refuses_to_shrink_a_passing_schedule():
    with pytest.raises(ValueError, match="does not fail"):
        shrink(StubDetector(lambda s: False), FaultSchedule((CrashAt(1, time=1.0),)))


def test_drop_atom_pass_removes_everything_irrelevant():
    schedule = FaultSchedule(
        (CrashAt(1, time=1.0), EquivocateAt(0, round=2), CrashAt(3, time=4.0))
    )
    result = shrink(StubDetector(has_kind("EquivocateAt")), schedule)
    assert [type(a).__name__ for a in result.schedule.faults] == ["EquivocateAt"]
    assert result.failure_key == frozenset({("eesmr", "agreement")})


def test_narrow_window_pass_halves_down_to_the_quantum():
    """A failure that only needs *a* window (any width) shrinks to the
    minimum window width, on the grid."""
    schedule = FaultSchedule((RelayDropWindow(2, 0.0, 8.0),))
    result = shrink(StubDetector(has_kind("RelayDropWindow")), schedule)
    (atom,) = result.schedule.faults
    start, end = atom.impairment()
    assert end - start == pytest.approx(TIME_QUANTUM)
    assert (start / TIME_QUANTUM) == int(start / TIME_QUANTUM)


def test_narrowing_respects_a_predicate_that_needs_the_late_half():
    """If the bug needs the window to cover t = 7.5, narrowing keeps
    containing it — the shrinker never accepts a candidate that stops
    failing."""

    def needs_late(schedule):
        for atom in schedule.faults:
            if isinstance(atom, PartitionWindow) and atom.start <= 7.5 < atom.heal:
                return True
        return False

    schedule = FaultSchedule((PartitionWindow(0, 0.0, 8.0),))
    result = shrink(StubDetector(needs_late), schedule)
    (atom,) = result.schedule.faults
    assert atom.start <= 7.5 < atom.heal
    assert atom.heal - atom.start < 8.0  # it did narrow


def test_victim_pass_steps_adaptive_budgets_to_one():
    schedule = FaultSchedule((LeaderFollowingCrash(budget=2, start=1.0, interval=1.0),))
    result = shrink(StubDetector(has_kind("LeaderFollowingCrash")), schedule)
    (atom,) = result.schedule.faults
    assert atom.budget == 1


def test_shrink_is_deterministic():
    schedule = FaultSchedule(
        (RelayDropWindow(1, 0.0, 8.0), CrashAt(3, time=2.0), PartitionWindow(4, 1.0, 6.0))
    )
    predicate = has_kind("RelayDropWindow")
    first = shrink(StubDetector(predicate), schedule)
    second = shrink(StubDetector(predicate), schedule)
    assert first.describe() == second.describe()


def test_evaluation_budget_is_respected(monkeypatch):
    schedule = FaultSchedule(
        (RelayDropWindow(1, 0.0, 8.0), PartitionWindow(4, 0.0, 8.0), CrashAt(3, time=2.0))
    )
    detector = StubDetector(lambda s: True)
    monkeypatch.setattr(Shrinker, "max_evaluations", 5)
    result = shrink(detector, schedule)
    assert result.evaluations <= 5
    # One detect() per evaluation plus the initial detection shrink() ran.
    assert detector.runs == result.evaluations + 1


def test_rejects_candidates_whose_failure_is_a_different_bug():
    """Dropping the window makes the stub fail with a *different* key;
    the shrinker must not hop onto that other bug."""

    class TwoBugDetector:
        def detect(self, schedule):
            if has_kind("RelayDropWindow")(schedule):
                verdicts = [
                    ProtocolVerdict(
                        "eesmr", violations=[InvariantReport("liveness", False, "w")]
                    )
                ]
            else:
                verdicts = [
                    ProtocolVerdict(
                        "optsync", violations=[InvariantReport("agreement", False, "o")]
                    )
                ]
            return Detection(schedule=schedule, verdicts=verdicts)

    schedule = FaultSchedule((RelayDropWindow(1, 0.0, 4.0), CrashAt(3, time=2.0)))
    result = shrink(TwoBugDetector(), schedule)
    # The window (the original bug's trigger) survives; the crash is gone.
    assert [type(a).__name__ for a in result.schedule.faults] == ["RelayDropWindow"]
    assert result.failure_key == frozenset({("eesmr", "liveness")})


def test_narrow_pass_handles_crash_recover_windows():
    """The narrowing pass treats a crash-recover window like any other
    impairment window: halves it down to the quantum, on the grid."""
    schedule = FaultSchedule((CrashRecoverWindow(2, 0.0, 8.0),))
    result = shrink(StubDetector(has_kind("CrashRecoverWindow")), schedule)
    (atom,) = result.schedule.faults
    start, heal = atom.impairment()
    assert heal - start == pytest.approx(TIME_QUANTUM)
    assert (start / TIME_QUANTUM) == int(start / TIME_QUANTUM)
