"""Unit tests for the retry/backoff policy (catch-up and per-hop instances)."""

import dataclasses

import pytest

from repro.net.impairment import CATCH_UP_RETRY, HOP_RETRY
from repro.sim.rng import SeededRNG

pytestmark = pytest.mark.recovery


def test_defaults_are_coupled_to_the_grace_window():
    """A working sync (one or two round trips) finishes inside the 8 s
    grace; a broken one (full retry ladder) always overruns it — the
    property the planted-mutant detection depends on."""
    from repro.testkit.faults import CATCH_UP_GRACE

    policy = CATCH_UP_RETRY
    rng = SeededRNG(7)
    two_round_trips = 2 * policy.timeout + policy.backoff(0, rng)
    assert two_round_trips < CATCH_UP_GRACE
    rng = SeededRNG(7)
    give_up_floor = (policy.max_retries + 1) * policy.timeout + sum(
        policy.backoff_base * policy.backoff_factor**i for i in range(policy.max_retries)
    )
    assert give_up_floor > CATCH_UP_GRACE


def test_backoff_grows_exponentially_with_bounded_jitter():
    policy = dataclasses.replace(CATCH_UP_RETRY, jitter=0.25)
    rng = SeededRNG(3)
    delays = [policy.backoff(i, rng) for i in range(4)]
    for i, delay in enumerate(delays):
        base = policy.backoff_base * policy.backoff_factor**i
        assert base <= delay < base * 1.25
    assert delays == sorted(delays)


def test_backoff_is_deterministic_per_seed():
    policy = CATCH_UP_RETRY
    a = [policy.backoff(i, SeededRNG(9).child("x")) for i in range(3)]
    b = [policy.backoff(i, SeededRNG(9).child("x")) for i in range(3)]
    assert a == b


def test_zero_jitter_is_exact():
    policy = dataclasses.replace(CATCH_UP_RETRY, jitter=0.0)
    assert policy.backoff(2, SeededRNG(1)) == policy.backoff_base * policy.backoff_factor**2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"max_retries": -1},
        {"backoff_base": -0.5},
        {"backoff_factor": 0.5},
        {"jitter": -0.1},
        {"jitter": 1.0},
    ],
)
def test_invalid_parameters_are_rejected(kwargs):
    with pytest.raises(ValueError):
        dataclasses.replace(CATCH_UP_RETRY, **kwargs)


def test_the_two_instances_carry_their_documented_parameters():
    """One definition, two parameter sets; only timeout and budget differ."""
    assert (HOP_RETRY.timeout, HOP_RETRY.max_retries) == (2.0, 3)
    assert (CATCH_UP_RETRY.timeout, CATCH_UP_RETRY.max_retries) == (2.5, 4)
    assert dataclasses.replace(HOP_RETRY, timeout=2.5, max_retries=4) == CATCH_UP_RETRY
    rng = SeededRNG(5)
    assert HOP_RETRY.retry_delay(1, rng) == HOP_RETRY.timeout + HOP_RETRY.backoff(1, SeededRNG(5))
