"""Meta-test: the shipped tree passes its own static analyzer.

This is the PR-blocking contract ``make analyze`` enforces in CI,
pinned here so ``make test-fast`` catches a regression before the CI
round trip: every rule runs, every suppression carries its reason and
covers a live finding, and the pass stays inside its CI time budget.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.checkers import RULES
from repro.analysis.engine import Analyzer

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

#: ci.yml treats the analyzer as a < 10 s gate; leave generous headroom
#: for slow CI runners while still catching an accidental O(n^2) pass.
CI_BUDGET_SECONDS = 10.0


def test_shipped_tree_is_detlint_clean() -> None:
    start = time.perf_counter()
    report = Analyzer(root=REPO_ROOT).run([SRC])
    elapsed = time.perf_counter() - start
    assert report.ok, "\n" + report.render_human()
    assert report.files_analyzed > 50
    assert report.rules_run == [rule.name for rule in RULES] == [
        "no-unseeded-randomness",
        "no-wall-clock",
        "ordered-iteration",
        "rng-stream-discipline",
    ]
    assert elapsed < CI_BUDGET_SECONDS


def test_suppression_inventory_is_small_and_justified() -> None:
    """Suppressions are a budget, not a convenience.

    The tree ships none: the two ``SeededRNG(0)`` constructor fallbacks in
    net/ they once covered are gone, so every stream is injected.  Growing
    the inventory is a deliberate act that updates this pin alongside an
    inline reason.
    """
    report = Analyzer(root=REPO_ROOT).run([SRC])
    assert report.ok
    assert report.suppressed == 0
