"""Closed-loop fault-schedule fuzzing: generate → detect → shrink → corpus.

The scenario matrix's :data:`~repro.testkit.scenarios.FAULT_LIBRARY` is
hand-curated — every schedule in it was written by a person, so the
scenario surface grows only as fast as we type.  This package turns the
invariant battery into a bug-finding flywheel instead:

* :class:`~repro.fuzz.generator.ScheduleGenerator` composes seeded random
  :class:`~repro.testkit.faults.FaultSchedule`\\ s from the existing fault
  atoms, rejecting anything that violates the ``2f < n`` quorum bound or
  the Lemma A.5 strong-connectivity condition *before* it is ever run;
* :class:`~repro.fuzz.detect.Detector` runs each schedule through the
  session API across every protocol and evaluates the full invariant
  battery (plus harness-level failure modes: local safety violations and
  livelocks surface as findings, not detector crashes);
* :class:`~repro.fuzz.shrink.Shrinker` greedily reduces a failing
  schedule to a minimal reproducer (drop-atom → narrow-window →
  shrink-victim-set passes, re-verifying the failure after every step);
* :class:`~repro.fuzz.corpus.Corpus` persists survivors as canonical
  :class:`~repro.eval.runner.DeploymentSpec` JSON so CI replays them as a
  growing regression suite (``tests/corpus/``);
* :class:`~repro.fuzz.fuzzer.Fuzzer` is the closed loop over all four.

Everything is deterministic for a fixed seed: the same seed produces the
same schedules, the same verdicts and the same shrunk reproducers, byte
for byte (pinned by the reproducibility tests).
"""

from repro.fuzz.corpus import Corpus, CorpusEntry, canonical_json, replay_entry
from repro.fuzz.detect import Detection, Detector, ProtocolVerdict
from repro.fuzz.fuzzer import Finding, FuzzReport, Fuzzer
from repro.fuzz.generator import DEFAULT_KINDS, FuzzConfig, ScheduleGenerator
from repro.fuzz.shrink import Shrinker, ShrinkResult

__all__ = [
    "Corpus",
    "CorpusEntry",
    "canonical_json",
    "replay_entry",
    "Detection",
    "Detector",
    "ProtocolVerdict",
    "Finding",
    "FuzzReport",
    "Fuzzer",
    "DEFAULT_KINDS",
    "FuzzConfig",
    "ScheduleGenerator",
    "Shrinker",
    "ShrinkResult",
]
