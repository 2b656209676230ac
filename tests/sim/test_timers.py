"""Unit tests for timers and the timer registry."""

import pytest

from repro.sim.scheduler import Simulator
from repro.sim.timers import Timer, TimerRegistry


def test_timer_fires_after_duration():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(sim.now))
    timer.start(4.0)
    sim.run_until_idle()
    assert fired == [4.0]
    assert timer.fired


def test_timer_restart_supersedes_previous_deadline():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(sim.now))
    timer.start(4.0)
    sim.run(until=2.0)
    timer.start(4.0)  # re-arm at t=2 -> fires at 6
    sim.run_until_idle()
    assert fired == [6.0]


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", lambda: fired.append(1))
    timer.start(4.0)
    timer.cancel()
    sim.run_until_idle()
    assert fired == []
    assert not timer.running


def test_timer_remaining():
    sim = Simulator()
    timer = Timer(sim, "t", lambda: None)
    timer.start(10.0)
    sim.run(until=4.0)
    assert timer.remaining() == pytest.approx(6.0)


def test_timer_negative_duration_rejected():
    timer = Timer(Simulator(), "t", lambda: None)
    with pytest.raises(ValueError):
        timer.start(-1.0)


def test_registry_starts_independent_timers():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda: fired.append("a"))
    registry.start("b", 4.0, lambda: fired.append("b"))
    sim.run_until_idle()
    assert fired == ["a", "b"]


def test_registry_cancel_all():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda: fired.append("a"))
    registry.start("b", 4.0, lambda: fired.append("b"))
    cancelled = registry.cancel_all()
    sim.run_until_idle()
    assert cancelled == 2
    assert fired == []


def test_registry_cancel_single_key():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda: fired.append("a"))
    registry.start("b", 4.0, lambda: fired.append("b"))
    registry.cancel("a")
    sim.run_until_idle()
    assert fired == ["b"]


def test_registry_restart_replaces_callback():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda: fired.append("old"))
    registry.start("a", 3.0, lambda: fired.append("new"))
    sim.run_until_idle()
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
    sim.run_until_idle()
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
    sim.run_until_idle()
    assert fired == ["first", "second"]
    assert len(registry) == 0


# ------------------------------------------- a registry timer carries arguments
def test_registry_delivers_args_to_the_callback():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    assert registry.start("a", 2.0, lambda x, y: fired.append((x, y)), "block", 7) is None
    registry.start("b", 3.0, lambda: fired.append("bare"))
    sim.run_until_idle()
    assert fired == [("block", 7), "bare"]
    assert len(registry) == 0


def test_registry_restart_replaces_callback_and_args():
    sim = Simulator()
    fired = []
    registry = TimerRegistry(sim, prefix="commit")
    registry.start("a", 2.0, lambda x: fired.append(("old", x)), 1)
    registry.start("a", 3.0, lambda x: fired.append(("new", x)), 2)
    assert len(registry) == 1
    sim.run_until_idle()
    assert fired == [("new", 2)]
    assert sim.now == 3.0


def test_registry_negative_duration_rejected():
    registry = TimerRegistry(Simulator(), prefix="commit")
    with pytest.raises(ValueError):
        registry.start("a", -1.0, lambda: None)
    assert "a" not in registry


def test_registry_timer_is_its_pending_event():
    sim = Simulator(trace=True)
    registry = TimerRegistry(sim, prefix="p0:t-commit")
    registry.start("abc", 4.0, lambda: None)
    event = registry._timers["abc"]
    assert (event.time, event.label, event.active) == (4.0, "timer:p0:t-commit:abc", True)
    registry.cancel("abc")
    assert not event.active
    assert sim.pending_events == 0
