"""Energy accounting and the paper's analytical energy framework.

``repro.energy`` contains two layers:

* *Measurement* (:mod:`repro.energy.meter`): per-node energy meters that
  charge every send, receive, sign, verify, hash and idle interval during a
  simulated protocol run — the reproduction's stand-in for the paper's
  Saleae/INA169 instrumentation.
* *Analysis* (:mod:`repro.energy.model`, :mod:`repro.energy.protocol_costs`,
  :mod:`repro.energy.analysis`, :mod:`repro.energy.feasibility`): the
  Section 4 framework — closed-form per-consensus cost functions psi(X),
  best/worst/view-change decomposition, the view-change-ratio condition,
  the energy-fault bound f_e (equation EB), and the feasible-region plot of
  Figure 1.
"""

from repro.energy.meter import EnergyCategory, EnergyMeter
from repro.energy.ledger import ClusterEnergyLedger
from repro.energy.protocol_costs import (
    eesmr_cost_model,
    sync_hotstuff_cost_model,
    trusted_baseline_cost_model,
)
from repro.energy.analysis import (
    energy_fault_bound,
    compare_protocols,
)
from repro.energy.feasibility import FeasibleRegion, feasible_region

__all__ = [
    "EnergyCategory",
    "EnergyMeter",
    "ClusterEnergyLedger",
    "eesmr_cost_model",
    "sync_hotstuff_cost_model",
    "trusted_baseline_cost_model",
    "energy_fault_bound",
    "compare_protocols",
    "FeasibleRegion",
    "feasible_region",
]
