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

from repro.analysis import analyze, default_registry

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture slug, rule name, findings expected from the planted file).
CASES = [
    ("randomness", "no-unseeded-randomness", 4),
    ("wallclock", "no-wall-clock", 4),
    ("ordering", "ordered-iteration", 4),
    ("rng_discipline", "rng-stream-discipline", 3),
    ("registries", "registry-coherence", 6),
    ("observers", "observer-signature-drift", 5),
    ("slots", "slots-discipline", 3),
    ("floats", "no-float-accumulation-order", 3),
]


def _run(path: Path, rule: str):
    return analyze([path], select=[rule], root=FIXTURES)


@pytest.mark.parametrize("slug,rule,expected", CASES, ids=[c[1] for c in CASES])
def test_planted_fixture_fires(slug: str, rule: str, expected: int) -> None:
    report = _run(FIXTURES / f"planted_{slug}.py", rule)
    assert len(report.findings) == expected, report.render_human()
    assert {f.rule for f in report.findings} == {rule}
    # Findings are anchored: real line numbers, 1-based columns.
    assert all(f.line >= 1 and f.column >= 1 for f in report.findings)


@pytest.mark.parametrize("slug,rule,expected", CASES, ids=[c[1] for c in CASES])
def test_clean_fixture_is_silent(slug: str, rule: str, expected: int) -> None:
    report = _run(FIXTURES / f"clean_{slug}.py", rule)
    assert report.ok, report.render_human()
    assert report.findings == []


def test_every_shipped_rule_has_a_fixture_pair() -> None:
    """Adding a checker without a planted/clean pair fails here."""
    covered = {rule for _, rule, _ in CASES}
    assert set(default_registry().names()) == covered
    for slug, _, _ in CASES:
        assert (FIXTURES / f"planted_{slug}.py").is_file()
        assert (FIXTURES / f"clean_{slug}.py").is_file()


def test_flood_record_is_a_hot_class(tmp_path: Path) -> None:
    """The per-broadcast record every reception event carries is held to
    the slots contract (the planted fixture's count predates it)."""
    module = tmp_path / "network.py"
    module.write_text("class Flood:\n    def __init__(self):\n        self.delivered = set()\n")
    report = analyze([module], select=["slots-discipline"], root=tmp_path)
    assert [f.message.split()[2] for f in report.findings] == ["Flood"]


def test_findings_sort_and_render() -> None:
    report = _run(FIXTURES / "planted_ordering.py", "ordered-iteration")
    lines = [f.line for f in report.findings]
    assert lines == sorted(lines)
    rendered = report.findings[0].render()
    assert rendered.startswith("planted_ordering.py:")
    assert "[ordered-iteration]" in rendered
