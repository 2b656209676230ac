"""Unit tests for timers and the timer registry."""

import weakref

import pytest

from repro.eval.runner import DeploymentSpec
from repro.session import Session
from repro.sim.events import BucketedEventQueue
from repro.sim.scheduler import Simulator
from repro.sim.timers import Timer, TimerRegistry
from tests.conftest import entry_count, record_scheduled

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def test_timer_fires_after_duration():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(sim.now))
    timer.start(4.0)
    sim.run(max_events=1_000_000)
    assert fired == [4.0]
    assert not timer.running


def test_timer_restart_supersedes_previous_deadline():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(sim.now))
    timer.start(4.0)
    sim.run(2.0, max_events=1_000_000)
    timer.start(4.0)  # re-arm at t=2 -> fires at 6
    sim.run(max_events=1_000_000)
    assert fired == [6.0]


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(1))
    timer.start(4.0)
    timer.cancel()
    sim.run(max_events=1_000_000)
    assert fired == []
    assert not timer.running


class Owner:
    """A process-like owner whose timer calls back one of its own methods."""

    def __init__(self, sim: Simulator, fired: list) -> None:
        self.fired = fired
        self.timer = Timer(sim, "t", self.on_timer)

    def on_timer(self) -> None:
        self.fired.append(self)


def test_bound_method_timer_fires_on_its_owner():
    sim = Simulator()
    fired = []
    owner = Owner(sim, fired)
    owner.timer.start(1.0)
    sim.run(max_events=1_000_000)
    assert fired == [owner]


def test_bound_method_timer_does_not_keep_its_owner_alive():
    sim = Simulator()
    fired = []
    owner = Owner(sim, fired)
    owner.timer.start(1.0)
    gone = weakref.ref(owner)
    del owner
    # Owner -> timer -> bound method -> owner would be a cycle; it is not.
    assert gone() is None
    # The pending event outlives the owner and fires as a no-op.
    assert sim.pending_events == 1
    sim.run(max_events=1_000_000)
    assert fired == [] and sim.pending_events == 0


def test_timer_negative_duration_rejected():
    timer = Timer(Simulator(), "t", lambda: None)
    with pytest.raises(ValueError):
        timer.start(-1.0)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_timer_non_finite_duration_rejected(value):
    sim = Simulator()
    timer = Timer(sim, "t", lambda: None)
    with pytest.raises(ValueError):
        timer.start(value)
    timer.start(1.0)
    with pytest.raises(ValueError):
        timer.start(value)
    # Refused before anything was scheduled, moved or cancelled.
    assert timer.running and sim.pending_events == 1
    assert sim.schedule(2.0, lambda: None, "").seq == 1


def test_rearming_later_schedules_nothing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(sim.now))
    timer.start(4.0)
    scheduled = record_scheduled(sim)
    sim.run(1.0, max_events=1_000_000)
    timer.start(4.0)  # deadline 5.0 > 4.0: the pending event moves
    timer.start(4.0)  # same deadline: moves again, to a new seq
    assert scheduled == []
    assert (sim.pending_events, entry_count(sim._queue)) == (1, 1)
    sim.run(max_events=1_000_000)
    assert fired == [5.0]
    assert scheduled == []


def test_rearming_earlier_cancels_and_schedules():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(sim.now))
    timer.start(8.0)
    first = timer._event
    scheduled = record_scheduled(sim)
    timer.start(4.0)
    assert len(scheduled) == 1 and scheduled[0] is timer._event
    assert not first.active
    assert sim.pending_events == 1
    sim.run(max_events=1_000_000)
    assert fired == [4.0]


def test_cancel_after_moves_prevents_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(1))
    timer.start(1.0)
    for now in (0.5, 1.0, 1.5):
        sim.run(now, max_events=1_000_000)
        timer.start(1.0)
    timer.cancel()
    assert not timer.running and sim.pending_events == 0
    sim.run(max_events=1_000_000)
    assert fired == []
    assert entry_count(sim._queue) == 0


def test_ten_thousand_rearms_keep_one_pending_event():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(sim.now))
    timer.start(1.0)
    for step in range(1, 10_001):
        sim.run(step * 0.25, max_events=1_000_000)  # crosses the 512-bucket horizon on the way
        timer.start(1.0)
        assert sim.pending_events == 1
    assert entry_count(sim._queue) == 1
    assert timer.running and fired == []
    sim.run(max_events=1_000_000)
    assert fired == [2501.0]
    assert not timer.running
    assert sim.executed_events == 1


def test_registry_starts_independent_timers():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda: fired.append("a"))
    registry.start("b", 4.0, lambda: fired.append("b"))
    sim.run(max_events=1_000_000)
    assert fired == ["a", "b"]


def test_registry_cancel_all():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda: fired.append("a"))
    registry.start("b", 4.0, lambda: fired.append("b"))
    cancelled = registry.cancel_all()
    sim.run(max_events=1_000_000)
    assert cancelled == 2
    assert fired == []


def test_registry_cancel_single_key():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda: fired.append("a"))
    registry.start("b", 4.0, lambda: fired.append("b"))
    registry.cancel("a")
    sim.run(max_events=1_000_000)
    assert fired == ["b"]


def test_registry_restart_replaces_callback():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda: fired.append("old"))
    registry.start("a", 3.0, lambda: fired.append("new"))
    sim.run(max_events=1_000_000)
    assert fired == ["new"]


def test_registry_len_and_contains_count_running_only():
    sim = Simulator()
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda: None)
    registry.start("b", 3.0, lambda: None)
    assert len(registry) == 2
    assert "a" in registry
    registry.cancel("a")
    assert len(registry) == 1
    assert "a" not in registry
    assert registry.running_keys() == ["b"]


def test_registry_holds_armed_timers_only():
    sim = Simulator()
    registry = TimerRegistry(sim, prefix="commit")
    for height in range(50):
        registry.start(f"block-{height}", 1.0 + height, lambda: None)
    registry.cancel("block-7")
    assert len(registry) == 49
    assert "block-7" not in registry
    sim.run(max_events=1_000_000)
    # Every timer fired: nothing is left to scan, cancel or keep alive.
    assert len(registry) == 0
    assert registry.running_keys() == []
    assert registry.cancel_all() == 0
    assert registry._timers == {}


def test_registry_callback_may_restart_its_own_key():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")

    def first():
        fired.append("first")
        registry.start("a", 1.0, lambda: fired.append("second"))

    registry.start("a", 1.0, first)
    sim.run(max_events=1_000_000)
    assert fired == ["first", "second"]
    assert len(registry) == 0


# ------------------------------------------- a registry timer carries arguments
def test_registry_delivers_args_to_the_callback():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    assert registry.start("a", 2.0, lambda x, y: fired.append((x, y)), "block", 7) is None
    registry.start("b", 3.0, lambda: fired.append("bare"))
    sim.run(max_events=1_000_000)
    assert fired == [("block", 7), "bare"]
    assert len(registry) == 0


def test_registry_restart_replaces_callback_and_args():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda x: fired.append(("old", x)), 1)
    registry.start("a", 3.0, lambda x: fired.append(("new", x)), 2)
    assert len(registry) == 1
    sim.run(max_events=1_000_000)
    assert fired == [("new", 2)]
    assert sim.now == 3.0


def test_registry_rearming_later_moves_to_the_cancel_and_schedule_key():
    """A later re-arm moves the pending event (no push, one queue entry) to
    the ``(time, seq)`` a cancel + schedule on a twin simulator gives, so a
    tie at its new deadline still goes to the event scheduled first."""
    sim, twin = Simulator(), Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 4.0, fired.append, "old")
    expected = twin.schedule(4.0, lambda: None, "")
    scheduled = record_scheduled(sim)
    for now in (1.0, 2.0):
        sim.run(now, max_events=1_000_000)
        twin.run(now, max_events=1_000_000)
        tie = sim.schedule(4.0, fired.append, "", ("tie",))
        twin.schedule(4.0, lambda: None, "")
        registry.start("a", 4.0, fired.append, "new")  # deadline now + 4 > pending
        twin.cancel(expected)
        expected = twin.schedule(4.0, lambda: None, "")
        event = registry._timers["a"]
        assert (event.time, event.seq) == (expected.time, expected.seq)
    assert scheduled[-1] is tie and len(scheduled) == 2
    assert (sim.pending_events, entry_count(sim._queue)) == (3, 3)
    sim.run(max_events=1_000_000)
    assert fired == ["tie", "tie", "new"] and sim.now == 6.0
    assert len(registry) == 0


def test_registry_rearming_earlier_cancels_and_schedules():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 8.0, fired.append, "old")
    first = registry._timers["a"]
    scheduled = record_scheduled(sim)
    registry.start("a", 4.0, fired.append, "new")
    assert scheduled == [registry._timers["a"]] and not first.active
    sim.run(max_events=1_000_000)
    assert fired == ["new"] and sim.now == 4.0


@pytest.mark.parametrize("deadline", (4.0, 1.0), ids=("moved", "rescheduled"))
def test_registry_restart_counts_as_the_latest_start(deadline):
    registry = TimerRegistry(Simulator(), prefix="commit")
    registry.start("a", 2.0, lambda: None)
    registry.start("b", 3.0, lambda: None)
    registry.start("a", deadline, lambda: None)
    assert registry.running_keys() == ["b", "a"]


def test_registry_negative_duration_rejected():
    registry = TimerRegistry(Simulator(), prefix="commit")
    with pytest.raises(ValueError):
        registry.start("a", -1.0, lambda: None)
    assert "a" not in registry


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_registry_non_finite_duration_rejected(value):
    sim = Simulator()
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 1.0, lambda: None)
    with pytest.raises(ValueError):
        registry.start("a", value, lambda: None)
    with pytest.raises(ValueError):
        registry.start("b", value, lambda: None)
    # Refused before the armed timer was cancelled or a seq was drawn.
    assert registry.running_keys() == ["a"] and sim.pending_events == 1
    assert sim.schedule(2.0, lambda: None, "").seq == 1


def test_registry_timer_is_its_pending_event():
    sim = Simulator()
    sim.trace_enabled = True
    registry = TimerRegistry(sim, prefix="p0:t-commit")
    registry.start("abc", 4.0, lambda: None)
    event = registry._timers["abc"]
    assert (event.time, event.label, event.active) == (4.0, "timer:p0:t-commit:abc", True)
    registry.cancel("abc")
    assert not event.active
    assert sim.pending_events == 0


def test_untraced_registry_event_carries_the_constant_label():
    sim = Simulator()
    registry = TimerRegistry(sim, prefix="p0:t-commit")
    registry.start("abc", 4.0, lambda: None)
    registry.start("def", 5.0, lambda: None)
    assert [event.label for event in registry._timers.values()] == ["timer:p0:t-commit"] * 2
    sim.trace_enabled = True
    registry.start("ghi", 6.0, lambda: None)
    assert registry._timers["ghi"].label == "timer:p0:t-commit:ghi"


@pytest.mark.parametrize("protocol", ["eesmr", "sync-hotstuff"])
def test_restarted_blame_timers_push_no_events(protocol, monkeypatch):
    """Host-independent guard on queue traffic: pushes − executed events.

    Every block restarts ``T_blame`` on every replica.  A restart moves the
    pending event, so the only pushed events that never execute are the
    seven ``T_blame`` timers cancelled at the target height (cancel + push
    left 70 here: one cancelled event per restart as well).
    """
    pushes = []
    push = BucketedEventQueue.push

    def counting_push(self, *args, **kwargs):
        pushes.append(args[0])
        return push(self, *args, **kwargs)

    monkeypatch.setattr(BucketedEventQueue, "push", counting_push)
    spec = DeploymentSpec(protocol=protocol, n=7, f=1, k=2, target_height=10, seed=0)
    session = Session.from_spec(spec).run()
    assert session.sim.pending_events == 0
    assert len(pushes) - session.sim.executed_events == 7
