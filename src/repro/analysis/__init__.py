"""detlint: determinism static analysis.

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
* :class:`repro.analysis.engine.Analyzer` — the library API
  (``Analyzer(root).run(paths)``);
* :data:`repro.analysis.checkers.RULES` — the rules it runs.

See ``docs/analysis.md`` for the rule catalog and the suppression
grammar (``# detlint: ok <rule> — <reason>``).
"""

from repro.analysis.engine import add_arguments, main, run_cli
from repro.analysis.findings import Finding

__all__ = [
    "Finding",
    "add_arguments",
    "main",
    "run_cli",
]
