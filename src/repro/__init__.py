"""repro: a reproduction of "EESMR: Energy Efficient BFT — SMR for the masses".

The package is organised by substrate:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel;
* :mod:`repro.net` — hypergraph network model, topologies and the
  bounded-synchronous flooding transport;
* :mod:`repro.radio` — communication-medium energy models (BLE k-casts,
  GATT unicasts, WiFi, 4G LTE);
* :mod:`repro.crypto` — signature schemes with measured energy costs;
* :mod:`repro.energy` — per-node energy metering plus the paper's
  analytical energy framework (Section 4);
* :mod:`repro.core` — the EESMR protocol and the baselines it is compared
  against (Sync HotStuff, OptSync, trusted control node);
* :mod:`repro.eval` — the per-table / per-figure experiment
  implementations;
* :mod:`repro.workload` — the workload engines that feed commands into
  the replicas' pools;
* :mod:`repro.session` — the one front door for running a spec: the
  deployment spec and run result, one-pass deployment construction,
  observer hooks, steppable run control and adaptive adversaries
  (``run_protocol`` is sugar for it).

Quickstart::

    from repro import DeploymentSpec, run_protocol

    result = run_protocol(DeploymentSpec(protocol="eesmr", n=7, f=2, k=3))
    print(result.committed_blocks, result.energy_per_block_mj)
"""

from repro.core import FaultPlan, SyncHotStuffReplica
from repro.energy import (
    compare_protocols,
    eesmr_cost_model,
    energy_fault_bound,
    feasible_region,
    sync_hotstuff_cost_model,
    trusted_baseline_cost_model,
)
from repro.session import DeploymentSpec, RunResult, Session, SessionBuilder, run_protocol

__version__ = "1.0.0"

__all__ = [
    "FaultPlan",
    "SyncHotStuffReplica",
    "compare_protocols",
    "eesmr_cost_model",
    "energy_fault_bound",
    "feasible_region",
    "sync_hotstuff_cost_model",
    "trusted_baseline_cost_model",
    "DeploymentSpec",
    "RunResult",
    "run_protocol",
    "Session",
    "SessionBuilder",
]
