"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.eval.runner import PROTOCOLS, DeploymentSpec


def test_run_subcommand_honest(capsys):
    code = main(["run", "-n", "5", "-f", "1", "-k", "2", "--blocks", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "committed blocks    : 2" in out
    assert "safety              : OK" in out


def test_run_subcommand_with_leader_fault(capsys):
    code = main(
        ["run", "-n", "5", "-f", "1", "-k", "2", "--blocks", "1", "--leader-fault", "silent_leader"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "view changes        : 1" in out


def test_run_subcommand_other_protocol(capsys):
    code = main(["run", "--protocol", "sync-hotstuff", "-n", "5", "-f", "1", "-k", "2", "--blocks", "1"])
    assert code == 0
    assert "sync-hotstuff" in capsys.readouterr().out


def test_experiment_subcommand_table(capsys):
    code = main(["experiment", "table2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rsa-1024" in out


def test_experiment_names_all_callable():
    from repro.eval import experiments

    assert set(EXPERIMENTS) >= {"table1", "table2", "table3", "fig2c", "headline"}
    assert all(callable(getattr(experiments, function)) for function in EXPERIMENTS.values())


def test_experiment_fig1_prints_the_region_summary(capsys):
    assert main(["experiment", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "crossover_n" in out and "favourable_fraction" in out


def test_feasibility_subcommand(capsys):
    code = main(["feasibility", "--max-nodes", "16", "--payloads", "512"])
    out = capsys.readouterr().out
    assert code == 0
    assert "payload (B)" in out


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--max-nodes", "3"], "repro: max-nodes: the node axis starts at 4, got 3\n"),
        (["--payloads", "256", "-5"], "repro: payloads: payload sizes cannot be negative, got [-5]\n"),
    ],
)
def test_feasibility_refuses_an_empty_grid_in_one_line(argv, line, capsys):
    assert main(["feasibility", *argv]) == 2
    assert capsys.readouterr().err == line


def test_matrix_refuses_a_malformed_parallel_knob_in_one_line(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_MATRIX_PARALLEL", "two")
    assert main(["matrix", "--protocols", "eesmr", "--faults", "none", "--media", "ble"]) == 2
    assert capsys.readouterr().err == (
        "repro: REPRO_MATRIX_PARALLEL: expected a worker count, got 'two'\n"
    )


def test_run_protocol_choices_derive_from_runner_registry():
    run_parser = next(
        action
        for action in build_parser()._subparsers._group_actions
        if hasattr(action, "choices")
    ).choices["run"]
    protocol_action = next(a for a in run_parser._actions if a.dest == "protocol")
    assert tuple(protocol_action.choices) == PROTOCOLS


def test_run_subcommand_from_spec_file(tmp_path, capsys):
    spec = DeploymentSpec(protocol="eesmr", n=5, f=1, k=2, target_height=2, seed=3)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    code = main(["run", "--spec", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "committed blocks    : 2" in out
    assert "safety              : OK" in out


def test_matrix_subcommand(tmp_path, capsys):
    dump = tmp_path / "cells.json"
    code = main(
        [
            "matrix",
            "--protocols", "eesmr", "sync-hotstuff",
            "--faults", "none", "crash-leader",
            "--media", "ble",
            "-n", "5", "-f", "1", "-k", "2",
            "--blocks", "2",
            "--dump-specs", str(dump),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "cells run           : 4" in out
    assert "invariants          : OK" in out
    specs = json.loads(dump.read_text())
    assert len(specs) == 4
    # Every dumped cell round-trips through the declarative schema.
    for data in specs:
        assert DeploymentSpec.from_dict(data).n == 5


def test_matrix_reports_a_mid_run_safety_violation(capsys):
    """This EESMR cell forks mid-run (ROADMAP item 9: Δ = 4.0 under
    ``ble-calibrated`` is outside the model): the sweep names the cell's
    agreement failure and exits 1, with no traceback."""
    code = main(
        [
            "matrix",
            "--protocols", "eesmr",
            "--faults", "none", "equivocate+drop-window",
            "--topologies", "ring-kcast",
            "--workloads", "open-loop",
            "--media", "wifi",
            "--impairments", "ble-calibrated",
            "-n", "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "cells run           : 2" in out
    assert "invariants          : 1 FAILURES" in out
    (failure,) = [line for line in out.splitlines() if "FAIL:" in line]
    assert (
        "eesmr×equivocate+drop-window×wifi×ring-kcast×open-loop×ble-calibrated: [agreement @"
        in failure
    )
    assert "tried to commit" in failure


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["teleport"])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])
