"""Per-node energy metering.

The paper attributes energy to the protocol by measuring the board's draw
and subtracting the sleep-state baseline.  The reproduction does the
converse: it starts from zero and charges every protocol-visible operation
(radio transmit/receive, signature sign/verify, hashing) plus an optional
idle/sleep power draw over elapsed virtual time.  The result is the same
quantity the paper plots — "energy consumed by the protocol" — broken down
by category so experiments can explain *where* the Joules go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Optional


class EnergyCategory(str, Enum):
    """Where a unit of energy was spent."""

    TRANSMIT = "transmit"
    RECEIVE = "receive"
    SIGN = "sign"
    VERIFY = "verify"
    HASH = "hash"
    SLEEP = "sleep"
    COMPUTE = "compute"


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
    def communication(self) -> float:
        """Joules spent on the radio (transmit + receive)."""
        return self.get(EnergyCategory.TRANSMIT) + self.get(EnergyCategory.RECEIVE)

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

    Args:
        node_id: Owner of the meter.
        sleep_power_w: Baseline draw while idle; the paper measured 0.3 mW
            in sleep and ~1 mW while running SMR.  Sleep energy is charged
            explicitly via :meth:`charge_sleep` when a session finishes
            (``DeploymentSpec.charge_sleep``) so per-protocol numbers can
            include or exclude it, mirroring the paper's subtraction of the
            sleep baseline.
    """

    def __init__(self, node_id: int, sleep_power_w: float = 0.0003) -> None:
        self.node_id = node_id
        self.sleep_power_w = sleep_power_w
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

    def charge_sleep(self, duration_s: float) -> None:
        """Charge the idle baseline for ``duration_s`` seconds of virtual time."""
        if duration_s < 0:
            raise ValueError("duration cannot be negative")
        self.charge(EnergyCategory.SLEEP, self.sleep_power_w * duration_s)

    # --------------------------------------------------------------- queries
    @property
    def total_joules(self) -> float:
        """Total energy charged to this node."""
        return self.breakdown.total

    @property
    def total_millijoules(self) -> float:
        """Total energy in mJ (the unit most figures in the paper use)."""
        return self.breakdown.total * 1000.0

    def snapshot(self) -> EnergyBreakdown:
        """An independent copy of the current breakdown."""
        return EnergyBreakdown(dict(self.breakdown.joules))

    def reset(self) -> None:
        """Zero the meter (used between benchmark repetitions)."""
        self.breakdown = EnergyBreakdown()


def total_energy(meters: Iterable[EnergyMeter], exclude: Optional[set[int]] = None) -> float:
    """Sum of total Joules over a collection of meters.

    Args:
        exclude: Node ids to skip — the paper's figures report the energy of
            *correct* nodes only, so experiment code passes the Byzantine
            node ids here.
    """
    skip = exclude or set()
    return sum(m.total_joules for m in meters if m.node_id not in skip)
