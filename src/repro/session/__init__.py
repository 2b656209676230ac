"""repro.session: the one front door for building and driving experiments.

Every surface — the CLI, the scenario matrix, the fuzzer and corpus
replay, the ``bench/`` ledger, the examples and ``run_protocol`` itself —
builds deployments through the :class:`SessionBuilder` staged pipeline and
drives them through a :class:`Session`; there is no other way to run a
:class:`~repro.eval.runner.DeploymentSpec`:

* **staged construction** — topology → medium/radios → crypto → replicas
  → workload → faults → observers, each stage an overridable method
  returning a typed artifact (:mod:`repro.session.builder`);
* **observer protocol** — ``on_event`` / ``on_block_commit`` /
  ``on_view_change`` / ``on_fault_window`` hooks with a fan-out bus
  (:mod:`repro.session.observers`);
* **steppable run control** — ``step`` / ``run_until(pred|deadline)`` /
  pause-inspect-resume over live replica and network state, plus
  :class:`SessionController` for deterministic mid-run interventions
  (:mod:`repro.session.session`);
* **adaptive adversaries** — the first controller-based fault: a
  leader-following crash schedule (:mod:`repro.session.adaptive`).

Quickstart::

    from repro import DeploymentSpec
    from repro.session import Session

    session = Session.from_spec(DeploymentSpec(protocol="eesmr", n=7, f=2, k=3))
    session.run_until(pred=lambda s: max(s.inspect()["committed_heights"].values()) >= 2)
    print(session.inspect())          # paused: live views, heights, energy
    result = session.run().finish()   # resume to quiescence and collect
"""

from repro.session.adaptive import LeaderFollowingController
from repro.session.builder import (
    CryptoStage,
    FaultStage,
    MediumStage,
    ObserverStage,
    ReplicaStage,
    SessionBuilder,
    TopologyStage,
    WorkloadStage,
)
from repro.session.metrics import MetricsObserver
from repro.session.observers import (
    CallbackObserver,
    EnergyTimelineObserver,
    ObserverBus,
    PerfObserver,
    SessionObserver,
)
from repro.session.session import Session, SessionController

__all__ = [
    "Session",
    "SessionBuilder",
    "SessionController",
    "SessionObserver",
    "ObserverBus",
    "CallbackObserver",
    "PerfObserver",
    "MetricsObserver",
    "EnergyTimelineObserver",
    "LeaderFollowingController",
    "TopologyStage",
    "MediumStage",
    "CryptoStage",
    "ReplicaStage",
    "WorkloadStage",
    "FaultStage",
    "ObserverStage",
]
