"""Seeded randomness helpers.

All stochastic behaviour in the reproduction — per-hop network jitter, BLE
packet loss, workload generation, leader election when randomized — flows
through :class:`SeededRNG` instances derived from a single experiment seed.
This keeps every table and figure regenerable bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

from repro.crypto.hashing import sha256

T = TypeVar("T")


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from a root seed and a label path.

    Uses SHA-256 over the textual representation so that adding a new
    consumer of randomness never perturbs the streams of existing consumers
    (a property plain ``random.Random(root + i)`` would not give us).
    """
    payload = repr((root_seed,) + tuple(labels)).encode("utf-8")
    digest = sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRNG:
    """A thin, documented wrapper over :class:`random.Random`."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        #: The stream's bound ``random()``: a float in ``[0, 1)`` without a
        #: wrapper frame, for hot paths that scale the draw themselves.
        self.random = self._rng.random

    def child(self, *labels: object) -> "SeededRNG":
        """Derive an independent stream for a named sub-component."""
        return SeededRNG(derive_seed(self.seed, *labels))

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def chance(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element from a non-empty sequence."""
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Sample ``count`` distinct elements."""
        return self._rng.sample(items, count)

    def shuffle(self, items: list[T]) -> list[T]:
        """Return a new shuffled copy of ``items``."""
        copy = list(items)
        self._rng.shuffle(copy)
        return copy

    def bytes(self, count: int) -> bytes:
        """Random bytes (used for synthetic command payloads)."""
        return bytes(self._rng.getrandbits(8) for _ in range(count))

    def exponential(self, mean: float) -> float:
        """Exponentially distributed float with the given mean."""
        return self._rng.expovariate(1.0 / mean) if mean > 0 else 0.0
