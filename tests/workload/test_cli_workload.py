"""CLI surface of the workload layer: run/matrix flags and spec dumps."""

import json
import warnings

from repro.cli import main
from repro.core.txpool import TxPoolOverflowWarning


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


BASE = ["-n", "5", "-f", "1", "-k", "2", "--blocks", "4"]


def test_run_workload_open_loop_prints_slo_metrics(capsys):
    code, out = run_cli(
        ["run", *BASE, "--workload", "open-loop:2:3", "--block-interval", "0.5"],
        capsys,
    )
    assert code == 0
    assert "workload            : open-loop" in out
    assert "offered / committed" in out
    assert "commit latency" in out
    assert "goodput" in out


def test_run_closed_loop_output_is_unchanged(capsys):
    code, out = run_cli(["run", *BASE], capsys)
    assert code == 0
    assert "workload" not in out
    assert "txpool admission" not in out


def test_run_txpool_limit_reports_drops(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TxPoolOverflowWarning)
        code, out = run_cli(
            [
                "run",
                *BASE,
                "--workload",
                "open-loop:16:3",
                "--block-interval",
                "0.5",
                "--txpool-limit",
                "4",
            ],
            capsys,
        )
    assert code == 0
    assert "txpool admission" in out
    assert "dropped" in out


def test_run_workload_trace_file(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps([{"time": 0.1}, {"time": 0.7, "command_id": "x"}]))
    code, out = run_cli(
        ["run", *BASE, "--workload", f"trace:{path}", "--block-interval", "0.5"],
        capsys,
    )
    assert code == 0
    assert "workload            : trace" in out


def test_run_rejects_unknown_workload(capsys):
    assert main(["run", *BASE, "--workload", "drizzle"]) == 2
    assert capsys.readouterr().err.startswith("repro: unknown workload 'drizzle'")


def test_matrix_workload_axis(capsys):
    code, out = run_cli(
        [
            "matrix",
            "--protocols",
            "eesmr",
            "--faults",
            "none",
            "--media",
            "ble",
            "--workloads",
            "preload",
            "open-loop",
            "--block-interval",
            "0.5",
        ],
        capsys,
    )
    assert code == 0
    assert "cells run           : 2" in out
    assert "invariants          : OK" in out


def test_matrix_dump_specs_carries_workload_schema(tmp_path, capsys):
    dump = tmp_path / "specs.json"
    code, _ = run_cli(
        [
            "matrix",
            "--protocols",
            "eesmr",
            "--faults",
            "none",
            "--media",
            "ble",
            "--workloads",
            "open-loop:2.5",
            "--block-interval",
            "0.5",
            "--dump-specs",
            str(dump),
        ],
        capsys,
    )
    assert code == 0
    specs = json.loads(dump.read_text())
    assert len(specs) == 1
    assert specs[0]["workload"] == {
        "kind": "open-loop",
        "rate": 2.5,
        "clients": 1,
        "duration": None,
        "payload_size_bytes": None,
    }


def test_run_spec_file_with_workload_section(tmp_path, capsys):
    from repro.eval.runner import DeploymentSpec
    from repro.workload import OpenLoopPoisson

    spec = DeploymentSpec(
        protocol="eesmr",
        n=5,
        f=1,
        k=2,
        target_height=4,
        block_interval=0.5,
        seed=17,
        workload=OpenLoopPoisson(rate=2.0, clients=3),
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    code, out = run_cli(["run", "--spec", str(path)], capsys)
    assert code == 0
    assert "workload            : open-loop" in out
