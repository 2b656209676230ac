"""Byte pins of two campaign surfaces' CLI output.

The fuzz campaign and the scenario-matrix sweep both end in text a
person (or CI) reads: ``repro fuzz``'s stdout and ``--report`` JSON, and
``repro matrix``'s stdout.  Each is pinned by its sha256, so a refactor of
the run-and-judge machinery underneath them must reproduce every
verdict, skip reason, shrink step and count byte for byte.  The values
hold under any ``PYTHONHASHSEED``.
"""

import hashlib

from repro.cli import main

FUZZ_ARGS = [
    "fuzz",
    "--seed", "2",
    "--iterations", "8",
    "--protocols", "sync-hotstuff", "optsync",
    "--kinds", "PartitionWindow", "CrashRecoverWindow",
]
FUZZ_REPORT_SHA256 = "5bc54e41b1cc82aa2a62532cecc1a2715eb4b0ba379d6ee84f2ef058793407eb"
FUZZ_STDOUT_SHA256 = "577be65cc7460c22d2322c1969666cbbf09de104737f0e11de2b5c5de490c239"

#: 48 cells: 36 run, 12 skipped (two-crashes on the k=2 ring).
MATRIX_ARGS = [
    "matrix",
    "--faults", "none", "two-crashes", "crash-leader",
    "--workloads", "preload", "open-loop",
    "--impairments", "none", "lossy",
]
MATRIX_STDOUT_SHA256 = "e91401e55769b88df7179e314c9ab330daf4d29884526d1c4bb823396f966276"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fuzz_campaign_report_and_stdout_are_pinned(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(FUZZ_ARGS + ["--report", str(report)])
    out = capsys.readouterr().out
    assert code == 1  # two partition findings, each forking both baselines
    assert hashlib.sha256(report.read_bytes()).hexdigest() == FUZZ_REPORT_SHA256
    # The last line names the report path, which varies per run.
    lines = out.splitlines(keepends=True)
    assert lines[-1].startswith("wrote report")
    assert sha256("".join(lines[:-1])) == FUZZ_STDOUT_SHA256


def test_matrix_sweep_stdout_is_pinned(capsys):
    code = main(MATRIX_ARGS)
    out = capsys.readouterr().out
    assert code == 0
    assert "cells run           : 36" in out
    assert sha256(out) == MATRIX_STDOUT_SHA256
