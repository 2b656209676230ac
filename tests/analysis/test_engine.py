"""The analyzer engine and CLI: scoping, suppression flow, exit codes.

Temporary trees are written under ``tmp_path`` so the suppression
machinery is exercised end to end (finding → inline suppression →
meta-rules) without touching the shipped fixtures.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import Analyzer, analyze, main

FIXTURES = Path(__file__).parent / "fixtures"

#: A module with one rng-stream-discipline violation on line 2.
VIOLATION = "def stream():\n    return SeededRNG(99)\n"

#: The same module with the violation suppressed inline.
SUPPRESSED = (
    "def stream():\n"
    "    # detlint: ok rng-stream-discipline — fixture exercising suppression flow\n"
    "    return SeededRNG(99)\n"
)


def _write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


# ------------------------------------------------------------------ engine API
def test_findings_surface_and_exit_via_report(tmp_path: Path) -> None:
    path = _write(tmp_path, "mod.py", VIOLATION)
    report = analyze([path], root=tmp_path)
    assert not report.ok
    (finding,) = report.findings
    assert finding.rule == "rng-stream-discipline"
    assert (finding.path, finding.line) == ("mod.py", 2)


def test_inline_suppression_silences_and_is_counted(tmp_path: Path) -> None:
    path = _write(tmp_path, "mod.py", SUPPRESSED)
    report = analyze([path], root=tmp_path)
    assert report.ok, report.render_human()
    assert report.suppressed == 1


def test_unused_suppression_is_reported_on_full_runs(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        "mod.py",
        "X = 1  # detlint: ok no-wall-clock — nothing here reads the clock\n",
    )
    report = analyze([path], root=tmp_path)
    (finding,) = report.findings
    assert finding.rule == "unused-suppression"
    # A scoped --select run cannot audit use, so it must stay quiet.
    scoped = analyze([path], select=["no-wall-clock"], root=tmp_path)
    assert scoped.ok


def test_malformed_suppression_is_reported(tmp_path: Path) -> None:
    path = _write(tmp_path, "mod.py", "X = 1  # detlint: ok no-wall-clock\n")
    report = analyze([path], root=tmp_path)
    (finding,) = report.findings
    assert finding.rule == "bad-suppression"


def test_ignore_skips_rules_and_meta_rules(tmp_path: Path) -> None:
    _write(tmp_path, "mod.py", VIOLATION + "Y = 2  # detlint: ok nope\n")
    report = analyze(
        [tmp_path],
        ignore=["rng-stream-discipline", "bad-suppression", "unused-suppression"],
        root=tmp_path,
    )
    assert report.ok, report.render_human()


def test_unknown_rule_raises_key_error(tmp_path: Path) -> None:
    _write(tmp_path, "mod.py", VIOLATION)
    with pytest.raises(KeyError):
        analyze([tmp_path], select=["no-such-rule"], root=tmp_path)


def test_pycache_directories_are_skipped(tmp_path: Path) -> None:
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    _write(cache, "stale.py", VIOLATION)
    _write(tmp_path, "mod.py", "X = 1\n")
    report = Analyzer(root=tmp_path).run([tmp_path])
    assert report.files_analyzed == 1
    assert report.ok


# ------------------------------------------------------------------------ CLI
def test_cli_exit_codes(tmp_path: Path, capsys) -> None:
    bad = _write(tmp_path, "bad.py", VIOLATION)
    good = _write(tmp_path, "good.py", "X = 1\n")
    assert main([str(good)]) == 0
    assert "detlint: clean" in capsys.readouterr().out
    assert main([str(bad)]) == 1
    assert "rng-stream-discipline" in capsys.readouterr().out
    assert main([str(tmp_path / "missing.py")]) == 2
    assert main([str(good), "--select", "no-such-rule"]) == 2


def test_cli_json_format(tmp_path: Path, capsys) -> None:
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    (finding,) = payload["findings"]
    assert finding["rule"] == "rng-stream-discipline"
    assert finding["line"] == 2
    assert "rng-stream-discipline" in payload["rules_run"]


def test_cli_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "no-unseeded-randomness",
        "no-wall-clock",
        "ordered-iteration",
        "rng-stream-discipline",
        "registry-coherence",
        "observer-signature-drift",
        "slots-discipline",
        "no-float-accumulation-order",
        "bad-suppression",
        "unused-suppression",
    ):
        assert rule in out


def test_repro_analyze_subcommand_matches_module_entry(tmp_path: Path, capsys) -> None:
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert cli.main(["analyze", str(bad)]) == 1
    via_subcommand = capsys.readouterr().out
    assert main([str(bad)]) == 1
    via_module = capsys.readouterr().out
    assert via_subcommand == via_module
    assert cli.main(["analyze", "--list-rules"]) == 0


# ------------------------------------- regression: the shipped suppressions
def test_shipped_rng_fallback_suppressions_still_fire_when_removed(tmp_path: Path) -> None:
    """The two SeededRNG(0) fallbacks in net/ are suppressed, not invisible.

    PR 10 triaged them as constructor conveniences (every session build
    injects a spec-derived stream); this pins both halves of that triage:
    the suppression comment is present, and stripping it re-fires the
    rule — i.e. the suppression is load-bearing, not stale.
    """
    repo_src = Path(__file__).resolve().parents[2] / "src"
    for relpath in ("repro/net/network.py", "repro/net/topology.py"):
        source = (repo_src / relpath).read_text(encoding="utf-8")
        assert "# detlint: ok rng-stream-discipline" in source, relpath
        stripped = "\n".join(
            line
            for line in source.splitlines()
            if "# detlint: ok rng-stream-discipline" not in line
        )
        path = _write(tmp_path, Path(relpath).name, stripped)
        report = analyze([path], select=["rng-stream-discipline"], root=tmp_path)
        assert not report.ok, f"{relpath}: suppression no longer covers a finding"
        assert {f.rule for f in report.findings} == {"rng-stream-discipline"}
