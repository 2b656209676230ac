"""The analyzer engine: collect files, run checkers, apply suppressions.

``python -m repro.analysis`` and ``repro analyze`` both land in
:func:`run_cli`.  The pass is purely syntactic (``ast`` over every file;
the analyzed code is never imported), so a repo-wide run is fast enough
to block every PR — the CI budget is < 10 s and the shipped tree runs in
well under one.  A file that does not parse is an input error (exit 2),
not a finding.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.checkers import RULES
from repro.analysis.context import ModuleContext, ParseError
from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.suppressions import (
    BAD_SUPPRESSION,
    UNUSED_SUPPRESSION,
    parse_suppressions,
)

#: Directory names never descended into when collecting files.
_SKIP_DIRS = {"__pycache__", ".git"}


def collect_contexts(paths: Sequence[Path], root: Path) -> List[ModuleContext]:
    """Parse every ``.py`` file under ``paths`` (sorted, deterministic)."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not _SKIP_DIRS.intersection(candidate.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    contexts = []
    for file in sorted(set(files)):
        contexts.append(ModuleContext.load(file, root))
    return contexts


class Analyzer:
    """Every rule over a file set; findings name files relative to ``root``."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def run(self, paths: Sequence[Path]) -> AnalysisReport:
        contexts = collect_contexts([Path(p) for p in paths], self.root)
        checkers = [rule() for rule in RULES]
        raw: List[Finding] = []
        for checker in checkers:
            for ctx in contexts:
                raw.extend(checker.check(ctx))

        findings: List[Finding] = []
        suppressed = 0
        sheets = {ctx.relpath: parse_suppressions(ctx.source) for ctx in contexts}
        for finding in raw:
            sheet = sheets.get(finding.path)
            if sheet is not None and sheet.match(finding.line, finding.rule):
                suppressed += 1
            else:
                findings.append(finding)
        for relpath, sheet in sheets.items():
            for line, message in sheet.malformed:
                findings.append(
                    Finding(
                        path=relpath, line=line, column=1, rule=BAD_SUPPRESSION, message=message
                    )
                )
            for suppression in sheet.unused():
                findings.append(
                    Finding(
                        path=relpath,
                        line=suppression.line,
                        column=1,
                        rule=UNUSED_SUPPRESSION,
                        message=(
                            f"suppression for {', '.join(suppression.rules)} "
                            "matched no finding; remove it or fix the rule list"
                        ),
                    )
                )
        return AnalysisReport(
            findings=sorted(findings),
            files_analyzed=len(contexts),
            rules_run=[c.name for c in checkers],
            suppressed=suppressed,
        )


# -------------------------------------------------------------------- the CLI
def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the analyzer's flags (shared by ``repro analyze``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def run_cli(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name:32s} {rule.description}")
        print(f"{BAD_SUPPRESSION:32s} (meta) malformed detlint suppression comment")
        print(f"{UNUSED_SUPPRESSION:32s} (meta) suppression that matched no finding")
        return 0
    paths = [Path(p) for p in args.paths] if args.paths else [Path("src/repro")]
    for path in paths:
        if not path.exists():
            print(f"detlint: no such path: {path}")
            return 2
    try:
        report = Analyzer(Path.cwd()).run(paths)
    except ParseError as error:
        print(f"detlint: cannot parse {error}")
        return 2
    if args.format == "json":
        print(report.render_json())
    elif report.findings:
        print(report.render_human())
    else:
        print(
            f"detlint: clean — {report.files_analyzed} file(s), "
            f"{len(report.rules_run)} rule(s)"
            + (f", {report.suppressed} suppression(s) honoured" if report.suppressed else "")
        )
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="detlint: determinism static analysis",
    )
    add_arguments(parser)
    return run_cli(parser.parse_args(argv))
