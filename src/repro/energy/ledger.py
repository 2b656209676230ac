"""Cluster-wide energy ledger.

A :class:`ClusterEnergyLedger` owns one :class:`EnergyMeter` per node and
offers the aggregate views that the paper's figures need: total energy of
correct nodes (Fig. 2f), leader vs. replica split (Fig. 2c), per-category
breakdowns, and per-consensus-unit averages.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.energy.meter import EnergyBreakdown, EnergyMeter, UnitTable


@dataclass
class EnergyReport:
    """Summary of a run's energy consumption."""

    per_node_joules: Dict[int, float]
    total_joules: float
    correct_total_joules: float
    leader_joules: float
    mean_replica_joules: float
    breakdown: EnergyBreakdown


class ClusterEnergyLedger:
    """Holds one meter per node and computes aggregate energy views.

    The meters share one :class:`UnitTable`, so any sum across nodes adds
    tallies slot by slot and keys each slot once.
    """

    def __init__(self, node_ids: Iterable[int]) -> None:
        self.units = UnitTable()
        self.meters: Dict[int, EnergyMeter] = {
            node_id: EnergyMeter(node_id, self.units) for node_id in node_ids
        }

    def meter(self, node_id: int) -> EnergyMeter:
        """The meter for one node (created lazily for late joiners)."""
        if node_id not in self.meters:
            self.meters[node_id] = EnergyMeter(node_id, self.units)
        return self.meters[node_id]

    # -------------------------------------------------------------- queries
    def total_joules(self) -> float:
        """Total Joules across nodes, priced from their summed counts."""
        return self.combined_breakdown().total

    def per_node_joules(self) -> Dict[int, float]:
        """Total Joules keyed by node id."""
        return {nid: m.total_joules for nid, m in self.meters.items()}

    def combined_breakdown(self, exclude: Iterable[int] = ()) -> EnergyBreakdown:
        """Category breakdown of the (non-excluded) nodes' summed counts."""
        skip = set(exclude)
        merged: Dict[int, int] = defaultdict(int)
        for nid, meter in self.meters.items():
            if nid not in skip:
                for slot, times in meter.tally.items():
                    merged[slot] += times
        return EnergyBreakdown(self.units.price(merged))

    def report(
        self,
        leader: int,
        faulty: Iterable[int],
    ) -> EnergyReport:
        """Produce the standard per-run energy report.

        Args:
            leader: Node id of the (steady-state) leader; its energy is
                reported separately, as in Fig. 2c and Fig. 3.
            faulty: Node ids of Byzantine nodes; excluded from the
                "correct nodes" totals, as in Fig. 2f.
        """
        faulty_set = set(faulty)
        per_node = self.per_node_joules()
        replicas = [nid for nid in per_node if nid not in faulty_set and nid != leader]
        mean_replica = (
            sum(per_node[nid] for nid in replicas) / len(replicas) if replicas else 0.0
        )
        correct = self.combined_breakdown(exclude=faulty_set)
        return EnergyReport(
            per_node_joules=per_node,
            total_joules=self.total_joules(),
            correct_total_joules=correct.total,
            leader_joules=per_node.get(leader, 0.0),
            mean_replica_joules=mean_replica,
            breakdown=correct,
        )
