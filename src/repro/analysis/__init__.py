"""detlint: determinism & registry-coherence static analysis.

Every PR in this repo rests on one contract — seeded byte-determinism:
golden trace fingerprints stay byte-identical across serial and
parallel runs, and every source of randomness flows through
:func:`repro.sim.rng.derive_seed` child streams.  The scenario matrix
and the fuzzer enforce that contract *dynamically*, on the paths they
happen to execute; this package enforces it *statically*, on every path,
on every PR.

Entry points:

* ``python -m repro.analysis`` / ``repro analyze`` / ``make analyze`` —
  run the pass (exit 1 on findings);
* :func:`analyze` — the library API used by the test battery;
* :func:`repro.analysis.registry.register` — plug in a new checker.

See ``docs/analysis.md`` for the rule catalog and the suppression
grammar (``# detlint: ok <rule> — <reason>``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import Analyzer, add_arguments, collect_contexts, main, run_cli
from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.registry import (
    Checker,
    CheckerRegistry,
    default_registry,
    register,
)
from repro.analysis.suppressions import (
    BAD_SUPPRESSION,
    UNUSED_SUPPRESSION,
    Suppression,
    parse_suppressions,
)


def analyze(
    paths: Sequence,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Run the default rule set over ``paths`` and return the report."""
    return Analyzer(root=root).run([Path(p) for p in paths], select=select, ignore=ignore)


__all__ = [
    "AnalysisReport",
    "Analyzer",
    "BAD_SUPPRESSION",
    "Checker",
    "CheckerRegistry",
    "Finding",
    "Suppression",
    "UNUSED_SUPPRESSION",
    "add_arguments",
    "analyze",
    "collect_contexts",
    "default_registry",
    "main",
    "parse_suppressions",
    "register",
    "run_cli",
]
