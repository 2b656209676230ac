"""repro.session: the one front door for building and driving experiments.

Every surface — the CLI, the scenario matrix, the fuzzer and corpus
replay, the ``bench/`` ledger, the examples and ``run_protocol`` itself —
builds deployments with :class:`SessionBuilder` and drives them through a
:class:`Session`; there is no other way to run a :class:`DeploymentSpec`:

* **the spec** — :class:`DeploymentSpec`, its JSON schema, and the
  :class:`RunResult` a finished run collects (:mod:`repro.session.spec`);
* **one-pass construction** — topology → radios and network → crypto →
  replicas → workload → faults → observers, in a pinned order
  (:mod:`repro.session.builder`, with ``run_protocol`` beside it);
* **observer protocol** — ``on_block_commit`` / ``on_view_change`` /
  ``on_fault_window`` / ``on_recovery`` hooks with a fan-out bus
  (:mod:`repro.session.observers`);
* **steppable run control** — ``step`` / ``run_until(pred|deadline)`` /
  pause-inspect-resume over live replica and network state, plus
  :class:`SessionController` for deterministic mid-run interventions
  (:mod:`repro.session.session`);
* **adaptive adversaries** — the first controller-based fault: a
  leader-following crash schedule (:mod:`repro.session.adaptive`).

Quickstart::

    from repro.session import DeploymentSpec, Session

    session = Session.from_spec(DeploymentSpec(protocol="eesmr", n=7, f=2, k=3))
    session.run_until(pred=lambda s: max(s.inspect()["committed_heights"].values()) >= 2)
    print(session.inspect())          # paused: live views, heights, energy
    result = session.run().finish()   # resume to quiescence and collect
"""

from repro.session.adaptive import LeaderFollowingController
from repro.session.builder import SessionBuilder, run_protocol
from repro.session.metrics import MetricsObserver
from repro.session.observers import (
    CallbackObserver,
    EnergyTimelineObserver,
    SessionObserver,
)
from repro.session.session import Session
from repro.session.spec import DeploymentSpec, RunResult

__all__ = [
    "DeploymentSpec",
    "RunResult",
    "run_protocol",
    "Session",
    "SessionBuilder",
    "SessionObserver",
    "CallbackObserver",
    "MetricsObserver",
    "EnergyTimelineObserver",
    "LeaderFollowingController",
]
