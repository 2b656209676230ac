"""Smoke test of the performance ledger: one round of a shrunken copy of each
workload (n <= 7, target_height <= 5, one medium) through the real harness."""

from __future__ import annotations

import dataclasses
import json

import pytest

from bench import ROOT, calibrate, metrics
from bench.__main__ import result_object
from bench.compare import verdict
from bench.harness import WorkloadRun
from bench.workloads import BY_NAME, WORKLOADS
from repro.eval.runner import DeploymentSpec

WORKLOAD_NAMES = (
    "steady-n25", "viewchange-n25", "scale-n100", "lossy-openloop-n7", "matrix-n7",
)
END_TO_END_NAMES = (
    "setup_s", "host_cost", "peak_rss_mb",
    "energy_per_block_mj", "virtual_s_per_block", "goodput_cmd_per_vs",
)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        run = WorkloadRun(workload, seed=0, small=True)
        run.round()
        # Steady stand-ins for what the real passes sample from the host, so
        # the kernel self-check cannot flake under a loaded test runner.
        run.kernels = [(0.05, 0.05)] * 8
        run.setups, run.peak_rss_mb = [0.5], 64.0
        run.timed_round(calibrate.time_kernel())
        run.traced_round()
        out[workload.name] = run
    return out


def test_names_are_normative_and_manifest_is_in_sync():
    assert tuple(w.name for w in WORKLOADS) == WORKLOAD_NAMES
    assert tuple(m.name for m in metrics.END_TO_END) == END_TO_END_NAMES
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for layer in metrics.TRACED_LAYERS:
        assert f"{layer}.self_share" in names
    for workload in WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == metrics.manifest(committed["run_seconds"])


def test_every_metric_is_reported_and_every_operation_passes(runs):
    for name, run in runs.items():
        assert run.failed == 0 and run.attempted > 0, name
        end_to_end, per_layer = run.end_to_end(), run.per_layer()
        assert tuple(end_to_end) == END_TO_END_NAMES
        assert tuple(per_layer) == tuple(m.name for m in metrics.PER_LAYER)
        assert all(value > 0 for value in end_to_end.values()), (name, end_to_end)
        result = result_object(run, end_to_end)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        for metric, entry in result["metrics"].items():
            assert set(entry) == {"value", "unit"} and entry["unit"] == metrics.UNITS[metric]
        json.dumps(result)


def test_counts_repeat_across_rounds(runs):
    # round() compares every later round with the reference round and fails
    # the whole round on a difference; three rounds ran per workload.
    for name, run in runs.items():
        assert run.failed == 0, name
        assert run.reference["sim.events"] > 0 and run.reference["core.blocks"] > 0
    assert runs["matrix-n7"].reference["testkit.trace_events"] > 0
    assert runs["lossy-openloop-n7"].reference["net.hop_attempts"] > 0


def test_a_changed_count_fails_the_whole_round(runs, capsys):
    run = WorkloadRun(BY_NAME["steady-n25"], seed=0, small=True)
    run.reference = dict(runs["steady-n25"].reference, **{"sim.events": -1})
    run.round()
    assert run.failed == run.attempted == 4
    assert "sim.events" in capsys.readouterr().err


def test_failing_spec_is_counted_and_named(capsys):
    bad = DeploymentSpec(protocol="eesmr", n=4, f=2, k=2, seed=99)
    workload = dataclasses.replace(
        BY_NAME["steady-n25"],
        generate=lambda seed, small: BY_NAME["steady-n25"].generate(seed, True)[:1] + [bad],
    )
    run = WorkloadRun(workload, seed=0, small=True)
    run.round()
    assert (run.attempted, run.failed) == (2, 1)
    err = capsys.readouterr().err
    assert "FAILED steady-n25" in err and '"seed": 99' in err
    assert result_object(run, {})["correct"] is False


def test_layer_self_times_sum_to_the_traced_round(runs):
    for name, run in runs.items():
        trace, wall = run.traces[0], run.traced_walls[0]
        assert sum(trace["self_s"].values()) == pytest.approx(trace["total_s"], rel=1e-6)
        assert trace["total_s"] == pytest.approx(wall, rel=0.02), name
        assert trace["py_calls"] > 0 and trace["c_calls"] > 0
        assert run.first_tracer.spans, name
    matrix, steady = runs["matrix-n7"].per_layer(), runs["steady-n25"].per_layer()
    assert matrix["testkit.self_share"] > 0 and steady["testkit.self_share"] == 0


def test_kernel_self_check_refuses_a_broken_timer():
    calibrate.check_kernel_samples([(0.050, 0.051), (0.051, 0.070), (0.070, 0.052)])
    with pytest.raises(calibrate.CalibrationError, match="timer resolution"):
        calibrate.check_kernel_samples([(0.001, 0.001)] * 4)
    with pytest.raises(calibrate.CalibrationError, match="unsteady"):
        calibrate.check_kernel_samples([(0.03, 0.05), (0.05, 0.09), (0.09, 0.05)])
    assert calibrate.midmean([9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0]) == 4.5


def test_compare_verdicts():
    assert verdict(10.0, 10.5, "lower", 0.10) == "same"
    assert verdict(10.0, 11.5, "lower", 0.10) == "worse"
    assert verdict(10.0, 8.0, "lower", 0.10) == "better"
    assert verdict(10.0, 10.5, "lower", 0.10, noise=0.2) == "unresolved"
    assert verdict(5, 5, "lower", 0.0) == "same"
    assert verdict(5, 6, "lower", 0.0) == "worse"
    assert verdict(5, 6, "higher", 0.0) == "better"
