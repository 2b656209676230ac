"""Deterministic greedy shrinking of failing fault schedules.

A randomly generated failure usually carries freight: atoms that played no
part in the bug, windows far wider than the triggering overlap, adaptive
budgets bigger than the one strike that mattered.  The :class:`Shrinker`
reduces a failing schedule to a minimal reproducer with three greedy
passes, looping until a whole sweep makes no progress:

1. **drop-atom** — try removing each atom (via
   :meth:`~repro.testkit.faults.FaultSchedule.without_atom`);
2. **narrow-window** — repeatedly halve relay-drop/partition windows from
   the front and the back (:meth:`~repro.testkit.faults.Fault.narrowed`),
   keeping times on the generator's grid;
3. **shrink-victim-set** — step adaptive budgets down toward one victim
   (:meth:`~repro.testkit.faults.LeaderFollowingCrash.with_budget`).

Every candidate is re-verified through the real detector; a reduction is
kept only if the candidate still reproduces the *original* failure — its
failure key must overlap the key being chased, and the chased key narrows
to that overlap, so the shrinker converges on one bug instead of hopping
between distinct failures surgery might uncover.

Determinism: passes run in a fixed order over fixed index ranges, with no
randomness — the same (schedule, detector) input shrinks to the same
reproducer every time (pinned by the property tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.fuzz.detect import Detection
from repro.fuzz.generator import TIME_QUANTUM
from repro.testkit.faults import FaultSchedule, LeaderFollowingCrash


@dataclass
class ShrinkResult:
    """A minimal reproducer and how much work it took to reach it."""

    schedule: FaultSchedule
    detection: Detection
    #: (protocol, invariant) pairs the reproducer still fails.
    failure_key: FrozenSet[Tuple[str, str]]
    #: Accepted reductions.
    steps: int = 0
    #: Candidate detections evaluated (accepted or not).
    evaluations: int = 0

    def describe(self) -> dict:
        return {
            "schedule": self.schedule.describe(),
            "failure_key": sorted(list(pair) for pair in self.failure_key),
            "steps": self.steps,
            "evaluations": self.evaluations,
        }


class Shrinker:
    """Greedy, deterministic schedule reduction against a detector.

    Args:
        detector: Anything with ``detect(schedule) -> Detection``; the
            property tests substitute a stub, the fuzzer passes the real
            :class:`~repro.fuzz.detect.Detector`.
    """

    #: Hard bound on candidate detections per shrink.
    max_evaluations = 200

    def __init__(self, detector) -> None:
        self.detector = detector

    # ----------------------------------------------------------------- public
    def shrink(self, schedule: FaultSchedule, detection: Detection) -> ShrinkResult:
        """Reduce ``schedule``, whose ``detection`` failed, to a minimal
        reproducer of its failure."""
        if not detection.failed:
            raise ValueError("cannot shrink a schedule that does not fail")
        state = ShrinkResult(
            schedule=schedule, detection=detection, failure_key=detection.failure_key()
        )
        progress = True
        while progress and state.evaluations < self.max_evaluations:
            progress = False
            progress |= self._drop_atom_pass(state)
            progress |= self._narrow_window_pass(state)
            progress |= self._shrink_victim_pass(state)
        return state

    # ----------------------------------------------------------------- passes
    def _attempt(self, state: ShrinkResult, candidate: FaultSchedule) -> bool:
        """Re-verify ``candidate``; accept it if the failure survives."""
        if state.evaluations >= self.max_evaluations:
            return False
        state.evaluations += 1
        detection = self.detector.detect(candidate)
        overlap = detection.failure_key() & state.failure_key
        if not overlap:
            return False
        state.schedule = candidate
        state.detection = detection
        state.failure_key = overlap
        state.steps += 1
        return True

    def _drop_atom_pass(self, state: ShrinkResult) -> bool:
        progress = False
        index = 0
        while index < len(state.schedule.faults):
            if self._attempt(state, state.schedule.without_atom(index)):
                progress = True  # the atom at `index` changed; retry in place
            else:
                index += 1
        return progress

    def _narrow_window_pass(self, state: ShrinkResult) -> bool:
        progress = False
        for index in range(len(state.schedule.faults)):
            while self._narrow_once(state, index):
                progress = True
        return progress

    def _narrow_once(self, state: ShrinkResult, index: int) -> bool:
        atom = state.schedule.faults[index]
        window = atom.impairment()
        if window is None or math.isinf(window[1]):
            # Byzantine atoms report an unbounded impairment; only real
            # windowed atoms (their `narrowed` is implemented) shrink here.
            return False
        start, end = window
        duration = end - start
        if duration <= TIME_QUANTUM + 1e-12:
            return False
        half = max(TIME_QUANTUM, _snap(duration / 2.0))
        if half >= duration:
            return False
        # Keep the late half first (most faults bite after dissemination
        # begins), then the early half; both stay on the time grid.
        for new_start, new_end in ((end - half, end), (start, start + half)):
            try:
                candidate_atom = atom.narrowed(_snap(new_start), _snap(new_end))
            except (TypeError, ValueError):
                continue
            if self._attempt(state, state.schedule.replace_atom(index, candidate_atom)):
                return True
        return False

    def _shrink_victim_pass(self, state: ShrinkResult) -> bool:
        progress = False
        for index in range(len(state.schedule.faults)):
            while True:
                atom = state.schedule.faults[index]
                if not isinstance(atom, LeaderFollowingCrash) or atom.budget <= 1:
                    break
                candidate = state.schedule.replace_atom(
                    index, atom.with_budget(atom.budget - 1)
                )
                if not self._attempt(state, candidate):
                    break
                progress = True
        return progress


def _snap(value: float) -> float:
    """Snap a time onto the generator's quantized grid."""
    return round(value / TIME_QUANTUM) * TIME_QUANTUM
