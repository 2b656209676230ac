"""Per-node energy metering.

The paper attributes energy to the protocol by measuring the board's draw
and subtracting the sleep-state baseline.  The reproduction does the
converse: it starts from zero and counts every protocol-visible operation
(radio transmit/receive, signature sign/verify, hashing) at its unit cost.
The sleep baseline is never charged, because the paper subtracts it, and
neither is client cost, which the paper leaves out of the model.  Priced
when read, the counts give the quantity the paper plots — "energy consumed
by the protocol" — by category, so experiments can explain *where* the
Joules go.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Dict, Iterable, Tuple


class EnergyCategory(str, Enum):
    """Where a unit of energy was spent."""

    TRANSMIT = "transmit"
    RECEIVE = "receive"
    SIGN = "sign"
    VERIFY = "verify"
    HASH = "hash"


#: ``(category, Joules per operation) -> operations``.
Counts = Dict[Tuple[EnergyCategory, float], int]


def price(counts: Iterable[Counts]) -> Dict[EnergyCategory, float]:
    """Joules per category of the summed counts: Σ count × unit, in sorted key order."""
    merged: Counts = {}
    for node_counts in counts:
        for key, times in node_counts.items():
            merged[key] = merged.get(key, 0) + times
    joules: Dict[EnergyCategory, float] = {}
    for (category, unit_j), times in sorted(merged.items()):
        joules[category] = joules.get(category, 0.0) + times * unit_j
    return joules


class EnergyBreakdown:
    """A read-only view of priced counts: Joules per category."""

    def __init__(self, counts: Iterable[Counts]) -> None:
        self.joules = price(counts)

    def get(self, category: EnergyCategory) -> float:
        """Joules charged to ``category``."""
        return self.joules.get(category, 0.0)

    @property
    def total(self) -> float:
        """Total Joules across all categories."""
        return sum(self.joules.values())

    @property
    def cryptography(self) -> float:
        """Joules spent on cryptographic operations."""
        return (
            self.get(EnergyCategory.SIGN)
            + self.get(EnergyCategory.VERIFY)
            + self.get(EnergyCategory.HASH)
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view keyed by category value (for reports/tables)."""
        return {category.value: amount for category, amount in self.joules.items()}


class EnergyMeter:
    """Energy meter attached to one simulated node: one integer per
    ``(category, unit cost)``, never a log of charges or a float sum."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.counts: Counts = defaultdict(int)

    # -------------------------------------------------------------- charging
    def charge(self, category: EnergyCategory, unit_j: float, times: int = 1) -> None:
        """Count ``times`` operations of ``category`` costing ``unit_j`` Joules each.

        Negative unit costs are rejected: refunds would let a buggy protocol
        hide energy, and nothing in the paper's model ever returns energy.
        """
        if unit_j < 0:
            raise ValueError(f"cannot charge negative energy: {unit_j}")
        self.counts[category, unit_j] += times

    # --------------------------------------------------------------- queries
    @property
    def breakdown(self) -> EnergyBreakdown:
        """This node's Joules per category."""
        return EnergyBreakdown((self.counts,))

    @property
    def total_joules(self) -> float:
        """Total energy charged to this node."""
        return self.breakdown.total
