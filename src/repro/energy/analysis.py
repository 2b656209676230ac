"""Section 4 decision rules: when is protocol A more energy-efficient than B?

The paper derives two inequalities:

* the *view-change-ratio* condition: with ``nu_f = V / N`` the fraction of
  consensus units that suffer a view change,

      nu_f <= (psi*_B - psi_B) / (psi_V - psi*_V)

  protocol psi beats protocol psi* whenever the observed view-change ratio
  stays below that bound (best-case-optimal regime);

* the *energy-fault bound* (equation EB): the number of worst cases f_e an
  adversary can force while EESMR still beats a (view-change-free)
  baseline,

      f_e <= (psi_Baseline - psi^EESMR_B) / (psi^EESMR_B + psi^EESMR_V).

This module evaluates both, plus a convenience comparison report used by
examples and the Table 3 / Fig. 1 benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.energy.model import CostParameters
from repro.energy.protocol_costs import ProtocolCostModel


@dataclass(frozen=True)
class ProtocolComparison:
    """Energy comparison of two protocols at one parameter point."""

    params: CostParameters
    name_a: str
    name_b: str
    best_a: float
    best_b: float
    view_change_a: float
    view_change_b: float
    max_view_change_ratio: float

    @property
    def best_case_winner(self) -> str:
        """Which protocol is cheaper when the leader is correct."""
        return self.name_a if self.best_a <= self.best_b else self.name_b

    @property
    def best_case_advantage(self) -> float:
        """How many times cheaper the best-case winner is."""
        lo, hi = sorted((self.best_a, self.best_b))
        return hi / lo if lo > 0 else math.inf

    def a_wins_at_ratio(self, view_change_ratio: float) -> bool:
        """Whether protocol A wins for an observed view-change ratio nu_f."""
        if view_change_ratio < 0 or view_change_ratio > 1:
            raise ValueError("view-change ratio must be in [0, 1]")
        expected_a = (1 - view_change_ratio) * self.best_a + view_change_ratio * (
            self.best_a + self.view_change_a
        )
        expected_b = (1 - view_change_ratio) * self.best_b + view_change_ratio * (
            self.best_b + self.view_change_b
        )
        return expected_a <= expected_b


def view_change_ratio_bound(
    best_a: float, best_b: float, view_change_a: float, view_change_b: float
) -> float:
    """The view-change-ratio threshold ``(psi*_B - psi_B) / (psi_V - psi*_V)``.

    With A as psi and B as psi*, the returned value is the nu_f at which the
    expected per-unit energies of the two protocols cross.  Its meaning
    depends on which trade-off region the pair sits in (Section 4's
    "(un)favorable conditions"):

    * A better in both phases → 1.0 (A wins at every ratio);
    * A worse in both phases → 0.0 (A never wins);
    * A best-case optimal (cheaper steady state, pricier view change) → A
      wins for every ``nu_f`` *below* the returned threshold — this is the
      EESMR-vs-certificate-protocol situation;
    * A worst-case optimal (pricier steady state, cheaper view change) → A
      wins for every ``nu_f`` *above* the returned threshold.
    """
    best_gain = best_b - best_a
    vc_penalty = view_change_a - view_change_b
    if best_gain >= 0 and vc_penalty <= 0:
        return 1.0
    if best_gain <= 0 and vc_penalty >= 0:
        return 0.0
    # Both differences share a sign here, so the ratio is positive in either
    # the best-case-optimal or the worst-case-optimal region.
    return max(0.0, min(1.0, best_gain / vc_penalty))


def energy_fault_bound(
    baseline_per_unit: float, eesmr_best: float, eesmr_view_change: float
) -> float:
    """Equation (EB): the number of adversarially forced worst cases EESMR absorbs.

    ``f_e <= (psi_Baseline - psi^EESMR_B) / (psi^EESMR_B + psi^EESMR_V)``

    A negative numerator (the baseline is already cheaper than EESMR's best
    case) yields 0: no energy-fault tolerance relative to that baseline.
    """
    denominator = eesmr_best + eesmr_view_change
    if denominator <= 0:
        raise ValueError("EESMR costs must be positive")
    return max(0.0, (baseline_per_unit - eesmr_best) / denominator)


def breakeven_blocks(
    best_a: float, best_b: float, view_change_a: float, view_change_b: float, view_changes: int
) -> float:
    """N >= V * (psi_V - psi*_V) / (psi*_B - psi_B): consensus units needed to amortise.

    For a best-case-optimal protocol A with a more expensive view change,
    this is the number of consensus units N over which running A is still
    cheaper than B given ``view_changes`` worst-case events.
    """
    if view_changes < 0:
        raise ValueError("view_changes cannot be negative")
    best_gain = best_b - best_a
    vc_penalty = view_change_a - view_change_b
    if best_gain <= 0:
        return math.inf if vc_penalty > 0 else 0.0
    if vc_penalty <= 0:
        return 0.0
    return view_changes * vc_penalty / best_gain


def compare_protocols(
    model_a: ProtocolCostModel,
    model_b: ProtocolCostModel,
    params: CostParameters,
) -> ProtocolComparison:
    """Evaluate both models at one parameter point and derive the decision bound."""
    best_a = model_a.best_case(params)
    best_b = model_b.best_case(params)
    vc_a = model_a.view_change(params)
    vc_b = model_b.view_change(params)
    return ProtocolComparison(
        params=params,
        name_a=model_a.name,
        name_b=model_b.name,
        best_a=best_a,
        best_b=best_b,
        view_change_a=vc_a,
        view_change_b=vc_b,
        max_view_change_ratio=view_change_ratio_bound(best_a, best_b, vc_a, vc_b),
    )


def expected_energy(
    model: ProtocolCostModel, params: CostParameters, consensus_units: int, view_changes: int
) -> float:
    """Total expected energy of N consensus units with V view changes.

    ``(N - V) * psi_B + V * psi_W`` — the quantity both sides of the
    paper's comparison inequality compute.
    """
    if consensus_units < 0 or view_changes < 0:
        raise ValueError("counts cannot be negative")
    if view_changes > consensus_units:
        raise ValueError("cannot have more view changes than consensus units")
    best = model.best_case(params)
    worst = model.worst_case(params)
    return (consensus_units - view_changes) * best + view_changes * worst
