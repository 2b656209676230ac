"""Meta-test: a deliberately broken protocol must be *caught* by the testkit.

A checker that never fires is worthless.  This test wires a mutated EESMR
replica — one that ignores the 4Δ quiet-period rule and immediately
commits a pid-dependent choice among equivocating proposals — into a real
deployment under an equivocating leader, and asserts that the fork it
produces is detected by both the :class:`SafetyChecker` and the
testkit's agreement invariant.
"""

import pytest

from repro.core.adversary import EquivocatingLeaderReplica, FaultPlan
from repro.core.config import ProtocolConfig
from repro.core.eesmr.replica import EesmrReplica
from repro.core.ledger import SafetyChecker
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import make_scheme
from repro.energy.ledger import ClusterEnergyLedger
from repro.eval.runner import DeploymentSpec
from repro.net.network import SimulatedNetwork
from repro.net.topology import ring_kcast_topology
from repro.sim.rng import SeededRNG
from repro.sim.scheduler import Simulator
from repro.testkit.invariants import AgreementInvariant, Evidence, InvariantViolation
from repro.testkit.trace import TraceRecorder
from repro.workload import ClosedLoopPreload


class ForkingReplica(EesmrReplica):
    """Deliberately broken: commits an equivocated round without the quiet
    period, choosing between the twins by pid parity — so even and odd
    nodes commit conflicting blocks at the same height."""

    def _handle_equivocation(self, view, first, second):
        self.commit_timers.cancel_all()
        twins = sorted((first.data, second.data), key=lambda block: block.block_hash)
        choice = twins[0] if self.pid % 2 == 0 else twins[1]
        self.store_block(choice)
        self.commit_chain(choice)


def run_broken_deployment():
    """An EESMR deployment of ForkingReplicas under an equivocating leader."""
    spec = DeploymentSpec(
        protocol="eesmr",
        n=5,
        f=1,
        k=2,
        target_height=3,
        seed=3,
        fault_plan=FaultPlan(faulty=(0,), behaviour="equivocate", trigger_round=3),
    )
    sim = Simulator()
    sim.trace_enabled = True
    rng = SeededRNG(spec.seed)
    topology = ring_kcast_topology(spec.n, spec.k)
    ledger = ClusterEnergyLedger(topology.nodes)
    network = SimulatedNetwork(sim, topology, ledger, rng=rng.child("network"))
    keystore = KeyStore(seed=spec.seed)
    keystore.generate(topology.nodes)
    scheme = make_scheme(spec.signature_scheme, keystore=keystore)
    config = ProtocolConfig(n=spec.n, f=spec.f, delta=4.0, target_height=spec.target_height)

    replicas = {}
    for pid in range(spec.n):
        cls = EquivocatingLeaderReplica if pid == 0 else ForkingReplica
        kwargs = {"trigger_round": 3} if pid == 0 else {}
        replicas[pid] = cls(sim, pid, config, scheme, network, ledger.meter(pid), **kwargs)
        network.register(replicas[pid])

    commands = ClosedLoopPreload().commands_for(spec)
    for replica in replicas.values():
        replica.submit_commands(commands)
    for replica in replicas.values():
        replica.start()
    # Stop before the view change completes: the fork has already happened
    # once the twins are flooded, and running further only piles recovery
    # traffic (and local safety explosions) on top of it.
    sim.run_until(10.0, max_events=1_000_000)

    safety = SafetyChecker(
        {pid: r.log for pid, r in replicas.items()}, faulty=spec.byzantine_nodes
    ).check()
    trace = TraceRecorder().capture(
        spec, config, sim, ledger, network, scheme, replicas, safety
    )
    return spec, trace, safety


def test_broken_protocol_forks_and_is_caught():
    spec, trace, safety = run_broken_deployment()
    # The mutation really forked: the run is NOT consistent.
    assert not safety.consistent
    assert safety.details, "the safety checker should name the conflicting heights"
    # ... and the testkit's agreement invariant catches it.
    evidence = Evidence(spec=spec, result=None, trace=trace, label="forking-mutant")
    with pytest.raises(InvariantViolation, match="agreement"):
        AgreementInvariant().check(evidence)


def test_honest_control_run_passes_the_same_invariant():
    """The same harness with the mutation removed stays clean — the checker
    fires because of the mutation, not because of the harness."""
    from repro.eval.runner import run_protocol

    spec = DeploymentSpec(
        protocol="eesmr",
        n=5,
        f=1,
        k=2,
        target_height=3,
        seed=3,
        fault_plan=FaultPlan(faulty=(0,), behaviour="equivocate", trigger_round=3),
    )
    result = run_protocol(spec, recorder=TraceRecorder())
    assert result.safety.consistent
    AgreementInvariant().check(Evidence(spec=spec, result=result, trace=result.trace))
