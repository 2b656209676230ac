"""The closed fuzzing loop: generate → detect → shrink → (corpus).

:class:`Fuzzer` wires the pieces together: a seeded
:class:`~repro.fuzz.generator.ScheduleGenerator` draws feasible random
schedules, the :class:`~repro.fuzz.detect.Detector` runs each across
every configured protocol under the invariant battery, and any failure is
handed to the :class:`~repro.fuzz.shrink.Shrinker` for reduction to a
minimal reproducer.  The resulting :class:`FuzzReport` is a canonical,
JSON-friendly record of the whole campaign — byte-identical across runs
for a fixed (config, seed) pair — and :meth:`Fuzzer.save_findings`
persists the shrunk reproducers into a :class:`~repro.fuzz.corpus.Corpus`
for CI replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from repro.fuzz.corpus import Corpus
from repro.fuzz.detect import Detection, Detector
from repro.fuzz.generator import FuzzConfig, ScheduleGenerator
from repro.fuzz.shrink import Shrinker, ShrinkResult


@dataclass
class Finding:
    """One invariant violation, from discovery through shrinking."""

    iteration: int
    detection: Detection
    shrunk: ShrinkResult

    def describe(self) -> dict:
        return {
            "iteration": self.iteration,
            "found": self.detection.describe(),
            "shrunk": self.shrunk.describe(),
        }


@dataclass
class FuzzReport:
    """Everything one fuzz campaign did, in canonical form."""

    seed: int
    iterations: int
    detections: List[Detection] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    #: Infeasible candidates the generator rejected before running.
    rejected: int = 0
    #: Protocol runs executed (detection + shrinking).
    runs: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.findings)

    def describe(self) -> dict:
        """Canonical description; equal across same-seed campaigns."""
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "rejected": self.rejected,
            "runs": self.runs,
            "detections": [detection.describe() for detection in self.detections],
            "findings": [finding.describe() for finding in self.findings],
        }


class Fuzzer:
    """The generate → detect → shrink loop, deterministic per seed."""

    def __init__(self, config: FuzzConfig, seed: int = 0, **detector_kwargs) -> None:
        self.config = config
        self.seed = seed
        self.generator = ScheduleGenerator(self.config, seed)
        self.detector = Detector(self.config, **detector_kwargs)
        self.shrinker = Shrinker(self.detector)

    def run(self, iterations: int) -> FuzzReport:
        """Fuzz for ``iterations`` schedules; shrink every failure found."""
        report = FuzzReport(seed=self.seed, iterations=iterations)
        for iteration in range(iterations):
            schedule = self.generator.generate()
            detection = self.detector.detect(schedule)
            report.detections.append(detection)
            if detection.failed:
                shrunk = self.shrinker.shrink(schedule, detection)
                report.findings.append(
                    Finding(iteration=iteration, detection=detection, shrunk=shrunk)
                )
        report.rejected = self.generator.rejected
        report.runs = self.detector.runs
        return report

    # ----------------------------------------------------------------- corpus
    def save_findings(self, report: FuzzReport, corpus_dir: Path) -> List[Path]:
        """Persist every finding's shrunk reproducer as a corpus entry.

        One entry per failing (protocol, invariant) finding, keyed to the
        first failing protocol's spec; written with ``expect:
        "violation"`` (they fail *now* — flip to ``"clean"`` once fixed,
        and the entry becomes a permanent regression guard).
        """
        corpus = Corpus(corpus_dir)
        written: List[Path] = []
        for finding in report.findings:
            key = sorted(finding.shrunk.failure_key)
            protocol = key[0][0]
            spec = self.config.spec_for(finding.shrunk.schedule, protocol)
            slug = "-".join(
                sorted({invariant for _, invariant in finding.shrunk.failure_key})
            )
            written.append(
                corpus.add(
                    spec.to_dict(),
                    expect="violation",
                    found={
                        "seed": self.seed,
                        "iteration": finding.iteration,
                        "failures": [list(pair) for pair in key],
                        "shrink_steps": finding.shrunk.steps,
                        "shrink_evaluations": finding.shrunk.evaluations,
                    },
                    note=f"shrunk reproducer from fuzz seed {self.seed}",
                    slug=slug or "reproducer",
                )
            )
        return written
