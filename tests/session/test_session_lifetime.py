"""A finished run is freed by reference count.

With the cyclic collector switched off, the simulator, the network, the
signature scheme and every process of a run must be gone as soon as the
call that ran it returns, while its result is still held.  A session
that is a reference cycle keeps its blocks, messages and sign/verify
memos alive until a full collection, so a process that runs many
sessions (a bench round, a matrix sweep, a fuzz campaign) holds the sum
of them; a new back-reference fails here first (docs/performance.md,
"A finished run is freed by reference count").
"""

import gc
import weakref

import pytest

from repro.fuzz.fuzzer import Fuzzer
from repro.fuzz.generator import FuzzConfig
from repro.net.impairment import ImpairmentSpec
from repro.session import CallbackObserver
from repro.session.builder import SessionBuilder, run_protocol
from repro.session.metrics import MetricsObserver
from repro.session.session import SessionController
from repro.session.spec import PROTOCOLS, DeploymentSpec
from repro.testkit.scenarios import FAULT_LIBRARY, ScenarioCell, ScenarioMatrix, judge
from repro.testkit.trace import TraceRecorder
from repro.workload import OpenLoopPoisson


def spec_with(**kwargs) -> DeploymentSpec:
    return DeploymentSpec(n=5, f=1, k=2, target_height=3, seed=29, **kwargs)


@pytest.fixture
def built(monkeypatch):
    """Weak references to the substrates of every session built in the test."""
    sessions = []
    build = SessionBuilder.build

    def recording_build(self):
        session = build(self)
        processes = [*session.replicas.values()]
        if session.control is not None:
            processes.append(session.control)
        substrates = (session.sim, session.network, session.scheme, *processes)
        sessions.append([weakref.ref(obj) for obj in substrates])
        return session

    monkeypatch.setattr(SessionBuilder, "build", recording_build)
    return sessions


def assert_freed_on_return(sessions, call):
    """Run ``call`` with the collector off; nothing of its sessions may survive it."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = call()
        alive = sorted({type(ref()).__name__ for refs in sessions for ref in refs if ref()})
    finally:
        if enabled:
            gc.enable()
    assert sessions, "the call built no session"
    assert not alive, f"still alive after the call returned: {alive}"
    return result


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_run_protocol_frees_the_run(built, protocol):
    result = assert_freed_on_return(built, lambda: run_protocol(spec_with(protocol=protocol)))
    assert result.safety.consistent and result.min_committed_height >= 3


def test_observed_run_frees_the_run(built):
    metrics = MetricsObserver()
    spec = spec_with(workload=OpenLoopPoisson(rate=2.0, clients=3))
    result = assert_freed_on_return(
        built, lambda: run_protocol(spec, observers=(metrics,), recorder=TraceRecorder())
    )
    assert result.trace is not None and metrics.summary() == result.metrics


@pytest.mark.parametrize("fault", ["crash-recover", "partition-heal"])
@pytest.mark.parametrize("protocol", ["eesmr", "sync-hotstuff"])
def test_recovering_run_frees_the_run(built, fault, protocol):
    events = []
    observer = CallbackObserver(on_recovery=lambda node, event, detail, time: events.append(event))
    spec = spec_with(protocol=protocol, fault_schedule=FAULT_LIBRARY[fault](5))
    assert_freed_on_return(built, lambda: run_protocol(spec, observers=(observer,)))
    assert events, "the recovery controller never ran"


def test_impaired_run_frees_the_run(built):
    spec = spec_with(impairment=ImpairmentSpec(loss=0.2))
    result = assert_freed_on_return(built, lambda: run_protocol(spec))
    assert result.deliveries_dropped > 0


def test_judged_matrix_cell_frees_the_run(built):
    cell = ScenarioCell("eesmr", "crash-recover", "ble", workload="open-loop", impairment="lossy")
    spec = ScenarioMatrix().build_spec(cell)
    verdict = assert_freed_on_return(built, lambda: judge(cell, spec, SessionBuilder))
    assert verdict.ok and verdict.metrics == verdict.result.metrics


def test_fuzz_campaign_frees_every_run(built):
    report = assert_freed_on_return(built, lambda: Fuzzer(FuzzConfig(), seed=0).run(5))
    assert len(built) == report.runs


class WakeOnceAt(SessionController):
    """A controller whose only wake-up is at ``time``."""

    def __init__(self, time: float) -> None:
        self.time = time
        self.woken = False

    def next_wakeup(self, session):
        return None if self.woken else self.time

    def on_wakeup(self, session):
        self.woken = True


@pytest.mark.parametrize("wake", [11.559, 12.558, 12.56])
@pytest.mark.parametrize("protocol", ["eesmr", "sync-hotstuff"])
def test_controlled_run_frees_the_run(built, protocol, wake):
    # The Sync HotStuff run's last live event is at 12.559: a wake-up just
    # after it ends the run with three cancelled T_blame entries (t=16.0)
    # still queued, which the simulator must drop.
    def call():
        session = SessionBuilder(spec_with(protocol=protocol)).build()
        session.controllers = (WakeOnceAt(wake),)
        return session.run().finish()

    result = assert_freed_on_return(built, call)
    assert result.safety.consistent and result.min_committed_height >= 3
