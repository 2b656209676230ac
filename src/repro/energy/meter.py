"""Per-node energy metering.

The paper attributes energy to the protocol by measuring the board's draw
and subtracting the sleep-state baseline.  The reproduction does the
converse: it starts from zero and charges every protocol-visible operation
(radio transmit/receive, signature sign/verify, hashing).  The sleep
baseline is never charged, because the paper subtracts it, and neither is
client cost, which the paper leaves out of the model.  The result is the
same quantity the paper plots — "energy consumed by the protocol" — broken
down by category so experiments can explain *where* the Joules go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict


class EnergyCategory(str, Enum):
    """Where a unit of energy was spent."""

    TRANSMIT = "transmit"
    RECEIVE = "receive"
    SIGN = "sign"
    VERIFY = "verify"
    HASH = "hash"


@dataclass
class EnergyBreakdown:
    """Aggregated Joules per category with convenience accessors."""

    joules: Dict[EnergyCategory, float] = field(default_factory=dict)

    def add(self, category: EnergyCategory, amount_j: float) -> None:
        """Accumulate ``amount_j`` Joules into ``category``."""
        self.joules[category] = self.joules.get(category, 0.0) + amount_j

    def get(self, category: EnergyCategory) -> float:
        """Joules charged to ``category`` so far."""
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
        return {category.value: amount for category, amount in sorted(self.joules.items(), key=lambda kv: kv[0].value)}


class EnergyMeter:
    """Energy meter attached to one simulated node: a counter per category.

    Callers charge by category (``meter.charge(EnergyCategory.SIGN, j)``);
    the meter keeps totals only, never a log of individual charges.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.breakdown = EnergyBreakdown()

    # -------------------------------------------------------------- charging
    def charge(self, category: EnergyCategory, joules: float) -> None:
        """Charge ``joules`` to ``category``.

        Negative charges are rejected: refunds would let a buggy protocol
        hide energy, and nothing in the paper's model ever returns energy.
        """
        if joules < 0:
            raise ValueError(f"cannot charge negative energy: {joules}")
        # EnergyBreakdown.add, inlined: two charges per reception land here.
        totals = self.breakdown.joules
        totals[category] = totals.get(category, 0.0) + joules

    # --------------------------------------------------------------- queries
    @property
    def total_joules(self) -> float:
        """Total energy charged to this node."""
        return self.breakdown.total
