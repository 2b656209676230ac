"""Pluggable workload engines: how client traffic enters a deployment.

The seed behaviour — generate one deterministic command stream and
pre-load it into every replica's txpool before the run starts — is one
engine among several:

* :class:`ClosedLoopPreload` — the seed behaviour, which owns the
  ``c0-<index>`` command stream and fills every pool before the run
  (golden trace fingerprints pin this);
* :class:`OpenLoopPoisson` — seeded Poisson arrivals multiplexing many
  simulated clients, injected as simulator events during the run;
* :class:`TraceReplay` — a timestamped command stream replayed from a
  file (or inline entries).

Clients are out-of-band, as in the paper: nothing models their
acknowledgements or their energy.  Open-loop commands still carry
``client_id=0``, which keeps their canonical form byte-stable; it does not
route them to a tracking client.

Engines are declarative values: they serialise through
:meth:`WorkloadEngine.describe` / :func:`workload_from_dict` (the
``workload`` section of the :class:`~repro.session.spec.DeploymentSpec`
schema), generate their arrival stream as a pure function of the spec
(so invariants and property tests can regenerate it without a
simulator), and install themselves into a deployment once
:class:`~repro.session.builder.SessionBuilder` has made its replicas.
"""

from repro.workload.engine import (
    ClosedLoopPreload,
    OpenLoopPoisson,
    WorkloadEngine,
    parse_workload,
    workload_command_ids,
    workload_from_dict,
)

__all__ = [
    "ClosedLoopPreload",
    "OpenLoopPoisson",
    "WorkloadEngine",
    "parse_workload",
    "workload_command_ids",
    "workload_from_dict",
]
