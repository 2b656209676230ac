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
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple


class EnergyCategory(str, Enum):
    """Where a unit of energy was spent."""

    TRANSMIT = "transmit"
    RECEIVE = "receive"
    SIGN = "sign"
    VERIFY = "verify"
    HASH = "hash"


#: ``(category, Joules per operation)``: what one counted operation costs.
Unit = Tuple[EnergyCategory, float]
#: ``(category, Joules per operation) -> operations``.
Counts = Mapping[Unit, int]
#: ``slot -> operations``: a meter's counts, keyed by :class:`UnitTable` slot.
Tally = Dict[int, int]


def price(counts: Iterable[Counts]) -> Dict[EnergyCategory, float]:
    """Joules per category of the summed counts: Σ count × unit, in sorted key order."""
    merged: Dict[Unit, int] = {}
    for node_counts in counts:
        for key, times in node_counts.items():
            merged[key] = merged.get(key, 0) + times
    return _sum_in_key_order(merged.items())


def _sum_in_key_order(items: Iterable[Tuple[Unit, int]]) -> Dict[EnergyCategory, float]:
    """Σ count × unit per category over ``(key, count)`` items taken in sorted key order."""
    joules: Dict[EnergyCategory, float] = {}
    for (category, unit_j), times in sorted(items):
        joules[category] = joules.get(category, 0.0) + times * unit_j
    return joules


class EnergyBreakdown:
    """A read-only view of priced counts: Joules per category (from :func:`price`
    or :meth:`UnitTable.price`)."""

    def __init__(self, joules: Dict[EnergyCategory, float]) -> None:
        self.joules = joules

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


class UnitTable:
    """One run's distinct ``(category, unit cost)`` pairs, each interned as a slot.

    Slots are small integers handed out in first-seen order; ``keys[slot]``
    is the pair a slot stands for.  Every meter of a ledger shares its table,
    so a hot path looks a slot up once and then only adds to tallies.  The
    negative-unit check lives here: it runs once per distinct unit, and no
    unit reaches a tally without passing it.
    """

    __slots__ = ("slots", "keys")

    def __init__(self) -> None:
        self.slots: Dict[Unit, int] = {}
        self.keys: List[Unit] = []

    def slot(self, category: EnergyCategory, unit_j: float) -> int:
        """The slot of ``(category, unit_j)``, interned on first sight.

        Negative unit costs are rejected: refunds would let a buggy protocol
        hide energy, and nothing in the paper's model ever returns energy.
        """
        key = (category, unit_j)
        slot = self.slots.get(key)
        if slot is None:
            if unit_j < 0:
                raise ValueError(f"cannot charge negative energy: {unit_j}")
            slot = len(self.keys)
            self.slots[key] = slot
            self.keys.append(key)
        return slot

    def price(self, tally: Tally) -> Dict[EnergyCategory, float]:
        """:func:`price` of the tally's counts, bit for bit, each slot keyed once
        (sum several meters' tallies slot by slot first)."""
        keys = self.keys
        return _sum_in_key_order([(keys[slot], times) for slot, times in tally.items()])


class EnergyMeter:
    """Energy meter attached to one simulated node: one integer per
    ``(category, unit cost)``, never a log of charges or a float sum.

    The integers live in ``tally``, keyed by the slot the shared
    :class:`UnitTable` gives each pair.  Hot paths hold their slots and add
    to the tally directly (``tally[slot] += 1``); :meth:`charge` is the
    generic entry for everything else.
    """

    __slots__ = ("node_id", "units", "tally")

    def __init__(self, node_id: int, units: UnitTable) -> None:
        self.node_id = node_id
        self.units = units
        self.tally: Tally = defaultdict(int)

    # -------------------------------------------------------------- charging
    def charge(self, category: EnergyCategory, unit_j: float, times: int = 1) -> None:
        """Count ``times`` operations of ``category`` costing ``unit_j`` Joules each
        (a negative ``unit_j`` raises :class:`ValueError`, see :meth:`UnitTable.slot`)."""
        self.tally[self.units.slot(category, unit_j)] += times

    # --------------------------------------------------------------- queries
    @property
    def counts(self) -> Counts:
        """Read-only ``(category, unit_j) -> operations``: one key per slot
        this meter was charged, a ``times=0`` charge included."""
        keys = self.units.keys
        return MappingProxyType({keys[slot]: times for slot, times in self.tally.items()})

    @property
    def breakdown(self) -> EnergyBreakdown:
        """This node's Joules per category."""
        return EnergyBreakdown(self.units.price(self.tally))

    @property
    def total_joules(self) -> float:
        """Total energy charged to this node."""
        return self.breakdown.total
