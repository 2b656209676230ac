"""SLO metrics: quantiles, fault windows, sharding equality.

``MetricsObserver`` numbers are pure functions of the deterministic run:
a serial matrix sweep and a ``parallel=N`` sharded one must report the
identical summaries.
"""

import json
import warnings

from repro.core.txpool import TxPoolOverflowWarning
from repro.eval.runner import DeploymentSpec, run_protocol
from repro.session.metrics import MetricsObserver, percentile
from repro.testkit import faults
from repro.testkit.scenarios import ScenarioMatrix
from repro.workload import OpenLoopPoisson


def open_loop_spec(**overrides):
    overrides.setdefault("workload", OpenLoopPoisson(rate=2.0, clients=3))
    base = dict(
        protocol="eesmr",
        n=5,
        f=1,
        k=2,
        target_height=6,
        block_interval=0.5,
        seed=17,
    )
    base.update(overrides)
    return DeploymentSpec(**base)


def run_with_metrics(spec, slo_p99=None):
    metrics = MetricsObserver(slo_p99=slo_p99)
    result = run_protocol(spec, observers=(metrics,))
    return metrics, result


# --------------------------------------------------------------- percentile
def test_percentile_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0.50) == 3.0
    assert percentile(values, 0.95) == 5.0
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) is None


# ------------------------------------------------------------------ summary
def test_summary_reports_commits_goodput_and_queue_depth():
    metrics, result = run_with_metrics(open_loop_spec())
    summary = metrics.summary()
    overall = summary["overall"]
    assert summary["offered"] > 0
    assert summary["committed_commands"] >= 1
    assert overall["commits"] == summary["committed_commands"]
    assert overall["goodput"] > 0
    assert overall["latency_p50"] is not None
    assert overall["latency_p99"] >= overall["latency_p50"]
    assert summary["queue_high_watermark"] > 0
    # The summary also lands on the RunResult for downstream consumers.
    assert result.metrics == summary


def test_fault_windows_segment_the_run():
    schedule = faults.drop_window(4, start=1.0, end=6.0)
    metrics, _ = run_with_metrics(open_loop_spec(fault_schedule=schedule))
    summary = metrics.summary()
    labels = [window["faults"] for window in summary["windows"]]
    assert len(labels) >= 3  # nominal → windowed → nominal
    assert any("@4" in label for label in labels)
    assert labels[0] == "nominal" and labels[-1] == "nominal"
    # Window edges tile the run exactly.
    edges = [(w["start"], w["end"]) for w in summary["windows"]]
    for (_, prev_end), (start, _) in zip(edges, edges[1:]):
        assert prev_end == start


def test_slo_verdict():
    generous, _ = run_with_metrics(open_loop_spec(), slo_p99=1e9)
    assert generous.summary()["slo_met"] is True
    strict, _ = run_with_metrics(open_loop_spec(), slo_p99=1e-9)
    assert strict.summary()["slo_met"] is False


def test_open_loop_load_has_a_saturation_knee():
    """Low rate: SLO met, zero drops.  High rate: the pool overflows, SLO missed.

    The ledger's ``workload.max_sustainable_rate`` row (``lossy-openloop-n7``)
    is this verdict taken over three rates; everything is virtual time, so
    it is host-independent.
    """

    def at_rate(rate):
        spec = open_loop_spec(
            workload=OpenLoopPoisson(rate=rate, clients=3),
            target_height=40,
            batch_size=8,
            txpool_limit=32,
        )
        with warnings.catch_warnings():
            # Drops above the knee are the measurement, not an accident.
            warnings.simplefilter("ignore", TxPoolOverflowWarning)
            metrics, _ = run_with_metrics(spec, slo_p99=40.0)
        return metrics.summary()

    low, high = at_rate(0.25), at_rate(2.0)
    assert low["slo_met"] and low["dropped"] == 0
    assert not high["slo_met"] and high["dropped"] > 0
    assert high["offered"] > low["offered"]
    # The bounded pool shapes the knee, not the proposer: pipelined blocks
    # carry distinct commands, so 1.25 is still below it (a proposer that
    # repeats its parent's batch drops 32 commands here).
    near = at_rate(1.25)
    assert near["slo_met"] and near["dropped"] == 0


def test_preload_runs_fall_back_to_run_start_arrivals():
    """Closed-loop commands carry no arrival stamp; latency is from t=0."""
    spec = DeploymentSpec(protocol="eesmr", n=5, f=1, k=2, target_height=3, seed=29)
    metrics, _ = run_with_metrics(spec)
    summary = metrics.summary()
    assert summary["committed_commands"] >= 1
    assert summary["overall"]["latency_p50"] is not None


def test_summary_is_plain_json_safe_data():
    metrics, _ = run_with_metrics(open_loop_spec(), slo_p99=40.0)
    encoded = json.dumps(metrics.summary(), sort_keys=True)
    assert json.loads(encoded) == metrics.summary()


# ----------------------------------------------------------------- sharding
def test_metrics_identical_across_serial_and_parallel_matrix():
    matrix = ScenarioMatrix(
        protocols=("eesmr",),
        fault_names=("none", "crash-leader"),
        media=("ble",),
        workloads=("preload", "open-loop"),
        block_interval=0.5,
    )
    serial = matrix.run(parallel=1)
    parallel = matrix.run(parallel=2)
    assert serial.ok and parallel.ok
    assert [o.cell for o in serial.outcomes] == [o.cell for o in parallel.outcomes]
    for a, b in zip(serial.outcomes, parallel.outcomes):
        assert a.metrics == b.metrics
        assert a.evidence.trace.fingerprint() == b.evidence.trace.fingerprint()
    # Preload cells ride the seed pipeline: no metrics attached.
    assert all(
        (o.metrics is None) == (o.cell.workload == "preload") for o in serial.outcomes
    )

