"""The analyzer engine and CLI: scoping, suppression flow, exit codes.

Temporary trees are written under ``tmp_path`` so the suppression
machinery is exercised end to end (finding → inline suppression →
meta-rules) without touching the shipped fixtures.
"""

from __future__ import annotations

import json
from pathlib import Path


from repro import cli
from repro.analysis import main
from repro.analysis.engine import Analyzer

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
    report = Analyzer(root=tmp_path).run([path])
    assert not report.ok
    (finding,) = report.findings
    assert finding.rule == "rng-stream-discipline"
    assert (finding.path, finding.line) == ("mod.py", 2)


def test_inline_suppression_silences_and_is_counted(tmp_path: Path) -> None:
    path = _write(tmp_path, "mod.py", SUPPRESSED)
    report = Analyzer(root=tmp_path).run([path])
    assert report.ok, report.render_human()
    assert report.suppressed == 1


def test_unused_suppression_is_reported_on_full_runs(tmp_path: Path) -> None:
    path = _write(
        tmp_path,
        "mod.py",
        "X = 1  # detlint: ok no-wall-clock — nothing here reads the clock\n",
    )
    report = Analyzer(root=tmp_path).run([path])
    (finding,) = report.findings
    assert finding.rule == "unused-suppression"


def test_malformed_suppression_is_reported(tmp_path: Path) -> None:
    path = _write(tmp_path, "mod.py", "X = 1  # detlint: ok no-wall-clock\n")
    report = Analyzer(root=tmp_path).run([path])
    (finding,) = report.findings
    assert finding.rule == "bad-suppression"


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


def test_cli_json_format(tmp_path: Path, capsys) -> None:
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    (finding,) = payload["findings"]
    assert finding["rule"] == "rng-stream-discipline"
    assert finding["line"] == 2
    assert "rng-stream-discipline" in payload["rules_run"]


def test_cli_parse_errors_are_input_errors(tmp_path: Path, capsys) -> None:
    """An unparsable file is exit 2 with one line, not a traceback that
    reads like exit 1 ("findings")."""
    broken = _write(tmp_path, "broken.py", "X = 1\ndef f(:\n")
    assert main([str(broken)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"detlint: cannot parse {broken}:2: ")
    assert out.count("\n") == 1
    latin = tmp_path / "latin.py"
    latin.write_bytes(b"X = 1\nY = 2\nNAME = '\xe9'\n")
    assert main([str(latin)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"detlint: cannot parse {latin}:3: not UTF-8")
    assert out.count("\n") == 1


def test_cli_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    rules = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert rules == [
        "no-unseeded-randomness",
        "no-wall-clock",
        "ordered-iteration",
        "rng-stream-discipline",
        "bad-suppression",
        "unused-suppression",
    ]


def test_repro_analyze_subcommand_matches_module_entry(tmp_path: Path, capsys) -> None:
    bad = _write(tmp_path, "bad.py", VIOLATION)
    assert cli.main(["analyze", str(bad)]) == 1
    via_subcommand = capsys.readouterr().out
    assert main([str(bad)]) == 1
    via_module = capsys.readouterr().out
    assert via_subcommand == via_module
    assert cli.main(["analyze", "--list-rules"]) == 0
