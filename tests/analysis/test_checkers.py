"""Per-rule fixture battery: every rule fires on its planted file and
stays silent on its clean counterpart.

The fixtures under ``fixtures/`` are analyzed, never imported — each is
a miniature module planted with exactly the violations its rule hunts
(see the inline ``# finding:`` markers) plus a clean twin written the
way the real tree should be written.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.checkers import RULES
from repro.analysis.engine import Analyzer

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture slug, rule name, findings expected from the planted file).
CASES = [
    ("randomness", "no-unseeded-randomness", 4),
    ("wallclock", "no-wall-clock", 4),
    ("ordering", "ordered-iteration", 4),
    ("rng_discipline", "rng-stream-discipline", 3),
]


def _run(path: Path, rule: str):
    """The findings of ``rule`` on one fixture file."""
    report = Analyzer(root=FIXTURES).run([path])
    return [finding for finding in report.findings if finding.rule == rule]


@pytest.mark.parametrize("slug,rule,expected", CASES, ids=[c[1] for c in CASES])
def test_planted_fixture_fires(slug: str, rule: str, expected: int) -> None:
    findings = _run(FIXTURES / f"planted_{slug}.py", rule)
    assert len(findings) == expected, "\n".join(f.render() for f in findings)
    # Findings are anchored: real line numbers, 1-based columns.
    assert all(f.line >= 1 and f.column >= 1 for f in findings)


@pytest.mark.parametrize("slug,rule,expected", CASES, ids=[c[1] for c in CASES])
def test_clean_fixture_is_silent(slug: str, rule: str, expected: int) -> None:
    assert _run(FIXTURES / f"clean_{slug}.py", rule) == []


def test_suppressed_fixture_is_clean_and_counted() -> None:
    report = Analyzer(root=FIXTURES).run([FIXTURES / "suppressed_rng_discipline.py"])
    assert report.ok, report.render_human()
    assert report.suppressed == 1


def test_every_shipped_rule_has_a_fixture_pair() -> None:
    """Adding a checker without a planted/clean pair fails here."""
    covered = {rule for _, rule, _ in CASES}
    assert {rule.name for rule in RULES} == covered
    assert len(RULES) == len(covered), "two rules share a name"
    for slug, _, _ in CASES:
        assert (FIXTURES / f"planted_{slug}.py").is_file()
        assert (FIXTURES / f"clean_{slug}.py").is_file()


def test_findings_sort_and_render() -> None:
    findings = _run(FIXTURES / "planted_ordering.py", "ordered-iteration")
    lines = [f.line for f in findings]
    assert lines == sorted(lines)
    rendered = findings[0].render()
    assert rendered.startswith("planted_ordering.py:")
    assert "[ordered-iteration]" in rendered
