"""Property tests: open-loop arrival streams are a pure function of the spec.

The matrix runs cells in worker processes, so the same property that makes
two in-process builds identical must also hold across a process boundary —
otherwise ``parallel=N`` sweeps would diverge from serial ones.
"""

from concurrent.futures import ProcessPoolExecutor

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.eval.runner import DeploymentSpec
from repro.workload import OpenLoopPoisson
from repro.workload.engine import default_open_loop_duration


def open_loop_spec(rate, clients, seed):
    return DeploymentSpec(
        protocol="eesmr",
        n=5,
        f=1,
        k=2,
        target_height=4,
        block_interval=0.5,
        seed=seed,
        workload=OpenLoopPoisson(rate=rate, clients=clients),
    )


def stream_fingerprint(spec):
    """Everything observable about the arrival stream, order-sensitive."""
    return [
        (c.command_id, c.client_id, c.arrival_time, c.payload_digest)
        for c in spec.workload.commands_for(spec)
    ]


def _fingerprint_from_schema(data):
    """Worker entry point: rebuild the spec from its JSON schema first."""
    return stream_fingerprint(DeploymentSpec.from_dict(data))


rates = st.floats(0.1, 16)
seeds = st.integers(0, 2**31)


@settings(max_examples=60, deadline=None)
@given(rate=rates, clients=st.integers(1, 4), seed=seeds)
def test_arrival_stream_is_deterministic_per_seed(rate, clients, seed):
    spec = open_loop_spec(rate, clients, seed)
    first = stream_fingerprint(spec)
    assert first == stream_fingerprint(spec)
    # Arrivals are sorted, unique, and confined to the open-loop window.
    times = [t for (_, _, t, _) in first]
    assert times == sorted(times)
    assert all(0 < t <= default_open_loop_duration(spec) for t in times)
    ids = [i for (i, _, _, _) in first]
    assert len(set(ids)) == len(ids)


@settings(max_examples=30, deadline=None)
@given(rate=rates, seed=seeds)
def test_seed_is_the_only_entropy_source(rate, seed):
    same = stream_fingerprint(open_loop_spec(rate, 2, seed))
    again = stream_fingerprint(open_loop_spec(rate, 2, seed))
    other = stream_fingerprint(open_loop_spec(rate, 2, seed + 1))
    assert same == again
    # A very low rate can draw zero arrivals under either seed; only
    # non-empty streams are expected to differ (arrival times are
    # continuous draws, so a collision is measure-zero).
    assume(same or other)
    assert same != other


def test_arrival_stream_is_invariant_under_matrix_sharding():
    """A worker process rebuilding the spec sees the identical stream."""
    specs = [open_loop_spec(rate, clients, seed) for rate, clients, seed in (
        (2.0, 3, 17),
        (8.0, 1, 17),
        (0.5, 2, 99),
    )]
    local = [stream_fingerprint(s) for s in specs]
    with ProcessPoolExecutor(max_workers=2) as pool:
        remote = list(pool.map(_fingerprint_from_schema, [s.to_dict() for s in specs]))
    assert remote == local
