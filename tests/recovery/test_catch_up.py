"""End-to-end catch-up tests: every protocol family recovers after a heal.

The recovery lane (``make test-recovery`` / ``pytest -m recovery``) runs
these alongside the default tier-1 sweep.  Each test builds a full
session through the PR 5 front door, lets a node miss blocks behind a
:class:`~repro.testkit.faults.PartitionWindow` or
:class:`~repro.testkit.faults.CrashRecoverWindow`, and asserts that the
catch-up protocol restores it to the full target height — within the
grace window, over the normal medium, with the observer lifecycle intact.
"""

import pytest

from repro.eval.runner import PROTOCOLS, DeploymentSpec
from repro.net.impairment import CATCH_UP_RETRY
from repro.recovery import RecoveryObserver
from repro.session.builder import SessionBuilder
from repro.testkit import faults
from repro.testkit.faults import CATCH_UP_GRACE

pytestmark = pytest.mark.recovery


def run_with_recovery(schedule, protocol, seed=11, target_height=5, n=5):
    spec = DeploymentSpec(
        protocol=protocol,
        n=n,
        f=1,
        k=2,
        target_height=target_height,
        block_interval=2.0,
        seed=seed,
        fault_schedule=schedule,
    )
    observer = RecoveryObserver()
    session = SessionBuilder(spec, observers=[observer]).build()
    session.run_to_quiescence()
    return spec, session, observer


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_partitioned_node_catches_up_to_full_target(protocol):
    schedule = faults.partition(3, start=1.0, heal=7.0)
    spec, session, observer = run_with_recovery(schedule, protocol)
    heights = {pid: r.committed_height for pid, r in session.replicas.items()}
    assert heights[3] == spec.target_height, heights
    kinds = observer.kinds_for(3)
    assert kinds[0] == "sync_started"
    assert "sync_request" in kinds
    assert observer.caught_up_nodes() == (3,)
    assert observer.gave_up_nodes() == ()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_recovered_node_catches_up_to_full_target(protocol):
    schedule = faults.crash_recover(2, start=1.0, heal=7.5)
    spec, session, observer = run_with_recovery(schedule, protocol, seed=12)
    heights = {pid: r.committed_height for pid, r in session.replicas.items()}
    assert heights[2] == spec.target_height, heights
    assert observer.caught_up_nodes() == (2,)
    assert observer.gave_up_nodes() == ()


@pytest.mark.parametrize("protocol", ("eesmr", "sync-hotstuff"))
def test_catch_up_after_quiescence_lands_inside_the_grace_window(protocol):
    """The retry/backoff defaults are coupled to CATCH_UP_GRACE: with the
    workload already finished at heal time (a fixed deficit, no moving
    target), a working sync closes the gap before the exemption lapses."""
    heal = 28.0  # both protocols quiesce before t=26 at this operating point
    schedule = faults.partition(3, start=1.0, heal=heal)
    spec, session, observer = run_with_recovery(schedule, protocol)
    assert session.replicas[3].committed_height == spec.target_height
    caught = [e for e in observer.events_for(3) if e[2] == "caught_up"]
    assert caught, observer.events
    assert caught[0][0] <= heal + CATCH_UP_GRACE
    # With the run outliving the grace window, the healed node is no
    # longer liveness-exempt — the invariant genuinely checked it.
    if session.now > heal + CATCH_UP_GRACE:
        assert schedule.liveness_exempt_nodes(end_time=session.now) == ()


def test_recovery_event_stream_is_deterministic_per_seed():
    """Same spec, same seed → byte-identical recovery lifecycle, including
    the jittered backoff delays (all randomness flows through SeededRNG)."""
    schedule = faults.partition(3, start=1.0, heal=7.0)
    runs = []
    for _ in range(2):
        _, _, observer = run_with_recovery(schedule, "eesmr")
        runs.append(observer.events)
    assert runs[0] == runs[1]
    # A different seed perturbs at least the jittered delays.
    _, _, other = run_with_recovery(schedule, "eesmr", seed=13)
    assert other.events  # still recovers; exact stream may legitimately differ


def test_overlapping_partitions_defer_sync_to_the_last_heal():
    """A node inside two overlapping partition windows must not begin
    soliciting until the *last* window heals (refcounted isolation): the
    first window's controller retires silently at its heal."""
    schedule = faults.partition(4, start=1.0, heal=6.0).add(
        faults.PartitionWindow(4, 3.0, 9.0)
    )
    spec, session, observer = run_with_recovery(schedule, "eesmr")
    requests = [e for e in observer.events_for(4) if e[2] in ("sync_started", "sync_request")]
    assert requests, "the surviving controller must still run catch-up"
    assert all(t >= 9.0 for t, *_ in requests), requests
    assert session.replicas[4].committed_height == spec.target_height
    assert observer.caught_up_nodes() == (4,)


def test_broken_catch_up_gives_up_and_forfeits_the_exemption():
    """When no responder will certify the suffix, the recovering node burns
    its retries, emits ``gave_up``, and the run outlives the grace window —
    so the window-scoped exemption lapses and liveness genuinely fails.
    This is the detection path the planted dropped-QC mutant rides.

    The node reboots after the workload quiesces, so no live protocol
    certificates can paper over the dropped sync certs."""

    class NoCertBuilder(SessionBuilder):
        def build_replica_stage(self):
            stage = super().build_replica_stage()
            for replica in stage.replicas.values():
                replica.sync_serve_certificates = False
            return stage

    schedule = faults.crash_recover(2, start=1.0, heal=28.0)
    spec = DeploymentSpec(
        protocol="sync-hotstuff",
        n=5,
        f=1,
        k=2,
        target_height=5,
        block_interval=2.0,
        seed=12,
        fault_schedule=schedule,
    )
    observer = RecoveryObserver()
    session = NoCertBuilder(spec, observers=[observer]).build()
    session.run_to_quiescence()
    assert session.replicas[2].committed_height < spec.target_height
    kinds = observer.kinds_for(2)
    assert kinds[-1] == "gave_up"
    retries = [e for e in observer.events_for(2) if e[2] == "sync_retry"]
    assert len(retries) == CATCH_UP_RETRY.max_retries
    # The give-up path is slower than the grace window by design: the
    # healed node is held to the target it never reached.
    assert session.now > 28.0 + CATCH_UP_GRACE
    assert schedule.liveness_exempt_nodes(end_time=session.now) == ()


def test_sync_traffic_rides_the_metered_medium():
    """Catch-up requests/responses are ordinary unicasts: they appear in
    the network's physical accounting and charge radio energy, so recovery
    is never free in the paper's cost model."""
    schedule = faults.partition(3, start=1.0, heal=7.0)
    baseline_spec = DeploymentSpec(
        protocol="eesmr", n=5, f=1, k=2, target_height=5, block_interval=2.0, seed=11
    )
    baseline = SessionBuilder(baseline_spec).build()
    baseline.run_to_quiescence()
    _, session, observer = run_with_recovery(schedule, "eesmr")
    assert any(e[2] == "sync_request" for e in observer.events)
    assert (
        session.network.stats.unicasts > baseline.network.stats.unicasts
    ), "sync round trips must show up as extra metered unicasts"
