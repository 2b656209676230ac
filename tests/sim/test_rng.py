"""Unit tests for seeded randomness helpers."""

from repro.sim.rng import SeededRNG, derive_seed


def test_same_seed_same_stream():
    a = SeededRNG(42)
    b = SeededRNG(42)
    assert [a.uniform(0.0, 1.0) for _ in range(10)] == [b.uniform(0.0, 1.0) for _ in range(10)]


def test_different_seeds_differ():
    a = SeededRNG(1)
    b = SeededRNG(2)
    assert [a.uniform(0.0, 1.0) for _ in range(5)] != [b.uniform(0.0, 1.0) for _ in range(5)]


def test_derive_seed_is_deterministic_and_label_sensitive():
    assert derive_seed(7, "network") == derive_seed(7, "network")
    assert derive_seed(7, "network") != derive_seed(7, "workload")
    assert derive_seed(7, "network") != derive_seed(8, "network")


def test_child_streams_are_independent_of_sibling_creation():
    root = SeededRNG(99)
    first = root.child("a").uniform(0.0, 1.0)
    # Creating another child must not perturb the stream of child "a".
    root.child("b")
    assert SeededRNG(99).child("a").uniform(0.0, 1.0) == first


def test_uniform_within_bounds():
    rng = SeededRNG(5)
    for _ in range(100):
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


def test_randint_within_bounds():
    rng = SeededRNG(5)
    values = {rng.randint(1, 3) for _ in range(200)}
    assert values == {1, 2, 3}


def test_chance_extremes():
    rng = SeededRNG(5)
    assert rng.chance(1.0) is True
    assert rng.chance(0.0) is False


def test_sample_returns_distinct_items():
    rng = SeededRNG(5)
    sample = rng.sample(list(range(10)), 4)
    assert len(sample) == 4
    assert len(set(sample)) == 4


def test_shuffle_returns_permutation_without_mutating_input():
    rng = SeededRNG(5)
    original = [1, 2, 3, 4, 5]
    shuffled = rng.shuffle(original)
    assert sorted(shuffled) == original
    assert original == [1, 2, 3, 4, 5]


def test_bytes_length():
    assert len(SeededRNG(5).bytes(16)) == 16


def test_exponential_mean_positive():
    rng = SeededRNG(5)
    values = [rng.exponential(2.0) for _ in range(500)]
    assert all(v >= 0 for v in values)
    assert 1.0 < sum(values) / len(values) < 3.5
