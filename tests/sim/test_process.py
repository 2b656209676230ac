"""Unit tests for the process abstraction."""

from repro.sim.process import Process
from repro.sim.scheduler import Simulator


class Recorder(Process):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


def test_deliver_dispatches_to_on_message():
    sim = Simulator()
    proc = Recorder(sim, 1)
    proc.deliver(2, "hello")
    assert proc.received == [(2, "hello")]


def test_crashed_process_ignores_deliveries():
    sim = Simulator()
    proc = Recorder(sim, 1)
    proc.crash()
    proc.deliver(2, "hello")
    assert proc.received == []


def test_recover_resumes_deliveries():
    sim = Simulator()
    proc = Recorder(sim, 1)
    proc.crash()
    proc.recover()
    proc.deliver(2, "hi")
    assert proc.received == [(2, "hi")]


def test_after_callback_guarded_by_crash():
    sim = Simulator()
    proc = Recorder(sim, 1)
    calls = []
    proc.after(1.0, lambda: calls.append("a"), "a")
    proc.after(2.0, lambda: calls.append("b"), "b")
    sim.run(1.5, max_events=1_000_000)
    proc.crash()
    sim.run(max_events=1_000_000)
    assert calls == ["a"]


def test_default_name_and_repr():
    proc = Recorder(Simulator(), 7)
    assert proc.name == "p7"
    assert "Recorder" in repr(proc)


def test_make_timer_is_bound_to_process_name():
    sim = Simulator()
    proc = Recorder(sim, 3)
    fired = []
    timer = proc.make_timer("blame", lambda: fired.append(1))
    assert timer.name == "p3:blame"
    timer.start(1.0)
    sim.run(max_events=1_000_000)
    assert fired == [1]


def test_after_passes_args_and_stays_guarded():
    sim = Simulator()
    proc = Recorder(sim, 1)
    calls = []
    proc.after(1.0, lambda view, tag: calls.append((view, tag)), "quit", args=(3, "quit"))
    proc.after(2.0, calls.append, "dropped", args=("dropped",))
    sim.run(1.5, max_events=1_000_000)
    proc.crash()
    sim.run(max_events=1_000_000)
    assert calls == [(3, "quit")]
