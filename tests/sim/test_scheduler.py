"""Unit tests for the discrete-event simulator."""

import pytest

from repro.sim.scheduler import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now), "")
    sim.run_until_idle(max_events=1_000_000)
    assert seen == [5.0]
    assert sim.now == 5.0


def test_events_execute_in_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"), "")
    sim.schedule(1.0, lambda: order.append("a"), "")
    sim.schedule(3.0, lambda: order.append("c"), "")
    sim.run_until_idle(max_events=1_000_000)
    assert order == ["a", "b", "c"]


def test_event_can_schedule_followups():
    sim = Simulator()
    times = []

    def first():
        times.append(sim.now)
        sim.schedule(2.0, second, "")

    def second():
        times.append(sim.now)

    sim.schedule(1.0, first, "")
    sim.run_until_idle(max_events=1_000_000)
    assert times == [1.0, 3.0]


def test_run_until_bound_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1), "")
    sim.schedule(10.0, lambda: fired.append(10), "")
    sim.run_until(5.0, max_events=1_000_000)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run_until_idle(max_events=1_000_000)
    assert fired == [1, 10]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None, "")


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None, "")
    sim.run_until_idle(max_events=1_000_000)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None, "", ())


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ["schedule", "schedule_at"])
def test_non_finite_times_are_a_simulation_error(entry, value):
    sim = Simulator()
    with pytest.raises(SimulationError):
        getattr(sim, entry)(value, lambda: None, "", ())
    # Refused before a seq was drawn or anything was scheduled.
    assert sim.pending_events == 0
    assert sim.schedule(1.0, lambda: None, "").seq == 0


@pytest.mark.parametrize("delay", [*NON_FINITE, -1.0, 0.5], ids=["nan", "inf", "-inf", "neg", "early"])
def test_move_refuses_an_earlier_or_non_finite_deadline(delay):
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None, "")
    assert not sim.move(event, delay)
    assert (event.time, event.seq, event.active, sim.pending_events) == (1.0, 0, True, 1)


def test_move_keeps_the_handle_and_draws_a_seq():
    sim = Simulator()
    fired = []
    event = sim.schedule(2.0, fired.append, "", args=("a",))
    tie = sim.schedule(3.0, fired.append, "", args=("b",))
    assert sim.move(event, 3.0)
    assert (event.time, event.seq, sim.pending_events) == (3.0, 2, 2)
    sim.run_until_idle(max_events=1_000_000)
    assert fired == ["b", "a"]  # the moved event fires after the tie it now follows
    assert not sim.move(event, 1.0) and not sim.move(tie, 1.0)  # both already fired


def test_cancel_scheduled_event():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1), "")
    sim.cancel(event)
    sim.run_until_idle(max_events=1_000_000)
    assert fired == []


def test_max_events_guard_detects_livelock():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop, "")

    sim.schedule(0.0, loop, "")
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_executed_and_pending_counters():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, "")
    sim.schedule(2.0, lambda: None, "")
    assert sim.pending_events == 2
    sim.run_until_idle(max_events=1_000_000)
    assert sim.executed_events == 2
    assert sim.pending_events == 0


def test_trace_log_records_labels():
    sim = Simulator()
    sim.trace_enabled = True
    sim.schedule(1.0, lambda: None, label="first")
    sim.schedule(2.0, lambda: None, label="second")
    sim.run_until_idle(max_events=1_000_000)
    assert sim.trace_log == [(1.0, "first"), (2.0, "second")]


def test_step_returns_false_when_idle():
    assert Simulator().step() is False


# ------------------------------------------------------ run_until fast path
def test_run_until_executes_events_up_to_deadline():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1), "")
    sim.schedule(5.0, lambda: fired.append(5), "")
    sim.schedule(10.0, lambda: fired.append(10), "")
    executed = sim.run_until(5.0, max_events=1_000_000)
    assert executed == 2
    assert fired == [1, 5]
    assert sim.now == 5.0
    sim.run_until_idle(max_events=1_000_000)
    assert fired == [1, 5, 10]


def test_run_until_advances_clock_when_queue_drains_early():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, "")
    sim.run_until(9.0, max_events=1_000_000)
    assert sim.now == 9.0


def test_run_until_records_trace_labels():
    sim = Simulator()
    sim.trace_enabled = True
    sim.schedule(1.0, lambda: None, label="first")
    sim.schedule(2.0, lambda: None, label="second")
    sim.run_until(3.0, max_events=1_000_000)
    assert sim.trace_log == [(1.0, "first"), (2.0, "second")]


def test_run_until_max_events_guard():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop, "")

    sim.schedule(0.0, loop, "")
    with pytest.raises(SimulationError):
        sim.run_until(1.0, max_events=50)


def test_run_until_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run_until(5.0, max_events=1_000_000)
        except SimulationError as error:
            errors.append(error)

    sim.schedule(1.0, reenter, "")
    sim.run_until(2.0, max_events=1_000_000)
    assert len(errors) == 1


# ------------------------------------------------ events carry their arguments
def test_schedule_passes_args_to_the_callback():
    sim = Simulator()
    calls = []
    sim.schedule(1.0, lambda a, b: calls.append((a, b)), "", args=("x", 2))
    sim.schedule_at(2.0, lambda a: calls.append(a), "", ("y",))
    sim.schedule(3.0, lambda: calls.append("no-args"), "")  # default () unchanged
    sim.run_until_idle(max_events=1_000_000)
    assert calls == [("x", 2), "y", "no-args"]


@pytest.mark.parametrize("drive", ["run", "run_until", "step"])
def test_every_loop_passes_args(drive):
    sim = Simulator()
    calls = []
    event = sim.schedule(1.0, calls.append, "", args=("payload",))
    assert event.args == ("payload",)
    if drive == "run":
        sim.run_until_idle(max_events=1_000_000)
    elif drive == "run_until":
        assert sim.run_until(5.0, max_events=1_000_000) == 1
    else:
        assert sim.step() is True
    assert calls == ["payload"]
