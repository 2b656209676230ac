"""BLE advertisement loss model and the reliability-vs-redundancy trade-off.

BLE advertisements are link-layer packets with no retransmission, so the
paper makes k-casts reliable by sending each fragment multiple times
("redundant transmissions") and measures how the k-cast failure rate drops
as the redundancy factor — and therefore the energy per message — grows
(Fig. 2a).  The model here is the standard independent-loss one:

* a single advertisement transmission is missed by one receiver with
  probability ``p_loss``;
* with redundancy ``r`` a receiver misses all copies with probability
  ``p_loss ** r``;
* a k-cast *succeeds* only if **all** ``k`` receivers get the fragment, so
  the k-cast failure probability is ``1 - (1 - p_loss**r)**k``.

The default ``p_loss`` is calibrated so that the redundancy needed for
99.99 % k-cast reliability at ``k = 7`` matches the paper's measured
operating point (≈5.3 mJ sender / ≈9.98 mJ receiver per 25-byte message).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

#: Per-receiver, per-transmission advertisement loss probability calibrated
#: against the paper's Fig. 2a operating point: with this loss rate, eight
#: redundant transmissions reach four-nines reliability for a k = 7 cast,
#: which prices a 25-byte message at ~5.3 mJ (sender) / ~9.98 mJ (receiver).
DEFAULT_ADVERTISEMENT_LOSS = 0.2475

#: The reliability target the paper standardises on ("four nines").
FOUR_NINES = 0.9999


@dataclass(frozen=True)
class ReliabilityPoint:
    """One point of the Fig. 2a trade-off curve."""

    k: int
    redundancy: int
    failure_probability: float
    sender_energy_mj: float
    receiver_energy_mj: float

    @property
    def failure_percent(self) -> float:
        return self.failure_probability * 100.0

    @property
    def reliability(self) -> float:
        return 1.0 - self.failure_probability


class AdvertisementLossModel:
    """Independent-loss model for BLE advertisement k-casts, at the
    calibrated per-transmission loss probability."""

    p_loss = DEFAULT_ADVERTISEMENT_LOSS

    def receiver_miss_probability(self, redundancy: int) -> float:
        """Probability one receiver misses every one of ``redundancy`` copies."""
        if redundancy < 1:
            raise ValueError("redundancy must be at least 1")
        return self.p_loss ** redundancy

    def kcast_failure_probability(self, k: int, redundancy: int) -> float:
        """Probability that at least one of ``k`` receivers misses the fragment."""
        if k < 1:
            raise ValueError("k must be at least 1")
        per_receiver_ok = 1.0 - self.receiver_miss_probability(redundancy)
        return 1.0 - per_receiver_ok ** k

    def kcast_reliability(self, k: int, redundancy: int) -> float:
        """Probability that all ``k`` receivers get the fragment."""
        return 1.0 - self.kcast_failure_probability(k, redundancy)

    def redundancy_for_reliability(self, k: int) -> int:
        """Smallest redundancy factor reaching four-nines k-cast reliability
        (the search ends: ``p_loss < 1``, so each copy shrinks the miss
        probability)."""
        for redundancy in itertools.count(1):
            if self.kcast_reliability(k, redundancy) >= FOUR_NINES:
                return redundancy

    def tradeoff_curve(
        self,
        k: int,
        tx_energy_per_packet_mj: float,
        rx_energy_per_packet_mj: float,
        max_redundancy: int,
    ) -> list[ReliabilityPoint]:
        """The Fig. 2a curve: failure rate vs energy as redundancy grows."""
        points = []
        for redundancy in range(1, max_redundancy + 1):
            points.append(
                ReliabilityPoint(
                    k=k,
                    redundancy=redundancy,
                    failure_probability=self.kcast_failure_probability(k, redundancy),
                    sender_energy_mj=redundancy * tx_energy_per_packet_mj,
                    receiver_energy_mj=redundancy * rx_energy_per_packet_mj,
                )
            )
        return points
