"""Property tests: impaired runs are byte-deterministic per seed.

The lossy-medium resilience contract has two determinism halves: the
impairment model's verdict stream is a pure function of its seed (so a
run under impairments replays byte for byte), and matrix sharding cannot
perturb impaired cells (serial ≡ ``parallel=N``).  Both are pinned here
— at the model level with hypothesis-driven draw sequences, and at the
run level with full traced sessions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.net.impairment import ImpairmentModel, ImpairmentSpec, impairment_from_dict
from repro.sim.rng import SeededRNG
from repro.testkit.scenarios import ScenarioMatrix
from repro.testkit.trace import TraceRecorder


# ------------------------------------------------------------ model level
impairment_specs = st.builds(
    ImpairmentSpec,
    loss=st.floats(0, 0.9),
    duplicate=st.floats(0, 0.9),
    jitter=st.floats(0, 2),
    reorder=st.floats(0, 0.9),
)


@settings(max_examples=60, deadline=None)
@given(
    spec=impairment_specs,
    seed=st.integers(0, 2**31),
    hops=st.lists(st.integers(0, 4), min_size=1, max_size=30),
)
def test_verdict_stream_is_a_pure_function_of_the_seed(spec, seed, hops):
    """Two models with the same (spec, seed) judge the same hop sequence
    identically — verdicts, extra delays, and every counter."""

    def judge_all():
        model = ImpairmentModel(spec, SeededRNG(seed))
        verdicts = [model.judge(receiver, None, 0.0, 1.0) for receiver in hops]
        return verdicts, model.stats_dict()

    assert judge_all() == judge_all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), hops=st.lists(st.integers(0, 4), min_size=1, max_size=30))
def test_overlay_push_pop_restores_the_clean_verdicts(seed, hops):
    """A pushed-then-popped overlay consumes no draws outside its window:
    with no overlays installed, a disabled spec never touches the RNG,
    so the verdict stream is all clean deliveries."""
    model = ImpairmentModel(ImpairmentSpec(), SeededRNG(seed))
    model.push(2, "loss", 1.0)
    model.pop(2, "loss")
    verdicts = [model.judge(receiver, None, 0.0, 1.0) for receiver in hops]
    assert verdicts == [(False, False, 0.0)] * len(hops)
    assert model.dropped == model.duplicated == model.delayed == 0


@settings(max_examples=100, deadline=None)
@given(
    spec=st.builds(
        ImpairmentSpec,
        loss=st.sampled_from([0.0, 0, 0.25, 1.0]),
        duplicate=st.sampled_from([0.0, 0.5]),
        jitter=st.sampled_from([0.0, 0, 1.5]),
        reorder=st.sampled_from([0.0, 0.1]),
        start=st.sampled_from([0.0, 0, 2.0]),
        end=st.sampled_from([float("inf"), 9.0]),
        ble_calibrated=st.booleans(),
        max_retries=st.sampled_from([3, 0, 7]),
    )
)
def test_describe_is_derived_from_the_dataclass(spec):
    """``describe()`` is every field that differs from its default and
    nothing else, so the round trip is exact and a default never leaks
    into a spec fingerprint — for fields added later too."""
    entry = spec.describe()
    assert impairment_from_dict(entry) == spec
    defaults = ImpairmentSpec()
    assert all(value != getattr(defaults, key) for key, value in entry.items())
    assert set(entry) == {
        name for name in ImpairmentSpec.__dataclass_fields__
        if getattr(spec, name) != getattr(defaults, name)
    }


# -------------------------------------------------------------- run level
def run_traced(seed, impairment, protocol="eesmr"):
    spec = DeploymentSpec(
        protocol=protocol,
        n=5,
        f=1,
        k=2,
        target_height=3,
        seed=seed,
        impairment=impairment,
    )
    return run_protocol(spec, recorder=TraceRecorder())


@pytest.mark.parametrize(
    "impairment",
    [
        ImpairmentSpec(loss=0.3),
        ImpairmentSpec(loss=0.2, duplicate=0.2, jitter=0.5),
        ImpairmentSpec(ble_calibrated=True),
    ],
    ids=["loss", "mixed", "ble"],
)
def test_impaired_runs_are_byte_identical_per_seed(impairment):
    first = run_traced(17, impairment)
    second = run_traced(17, impairment)
    assert first.trace.canonical_json() == second.trace.canonical_json()
    assert first.trace.fingerprint() == second.trace.fingerprint()
    assert first.deliveries_dropped == second.deliveries_dropped
    assert first.deliveries_retransmitted == second.deliveries_retransmitted


def test_impaired_runs_diverge_across_seeds():
    impairment = ImpairmentSpec(loss=0.3)
    assert (
        run_traced(1, impairment).trace.fingerprint()
        != run_traced(2, impairment).trace.fingerprint()
    )


def test_impairment_perturbs_only_its_own_stream():
    """An impaired run's spec fingerprint section differs, but switching
    the impairment off reproduces the baseline byte for byte — the model
    draws from a child stream, never from the hop-jitter stream."""
    baseline = run_traced(17, None)
    off_again = run_traced(17, None)
    assert baseline.trace.canonical_json() == off_again.trace.canonical_json()
    impaired = run_traced(17, ImpairmentSpec(loss=0.3))
    assert impaired.trace.fingerprint() != baseline.trace.fingerprint()


# ------------------------------------------------------------ matrix level
def test_parallel_matrix_with_impairments_matches_serial():
    matrix = ScenarioMatrix(
        protocols=("eesmr", "sync-hotstuff"),
        fault_names=("none",),
        media=("ble",),
        impairments=("none", "lossy", "ble-calibrated"),
    )
    serial = matrix.run(parallel=1)
    parallel = matrix.run(parallel=2)
    assert serial.cells_run == parallel.cells_run == 6
    assert [o.cell for o in serial.outcomes] == [o.cell for o in parallel.outcomes]
    serial_fps = [o.evidence.trace.fingerprint() for o in serial.outcomes]
    parallel_fps = [o.evidence.trace.fingerprint() for o in parallel.outcomes]
    assert serial_fps == parallel_fps
    serial.assert_clean()
    parallel.assert_clean()
