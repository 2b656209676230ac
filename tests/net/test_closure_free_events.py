"""Structural guard: no closure rides a per-event path.

Receptions, retransmissions and commit timers are scheduled as bound
methods whose arguments travel in ``Event.args``.  A callback defined
inside the scheduling function would allocate a function object, a closure
tuple and a cell per captured name for every hop — the garbage that had the
cyclic collector running for nothing (docs/performance.md, "Event plane").
"""

import types

import pytest

from repro.eval.runner import DeploymentSpec
from repro.net.impairment import ImpairmentSpec
from repro.session.builder import SessionBuilder
from tests.conftest import record_scheduled


@pytest.mark.parametrize(
    "impairment, expected_kinds",
    [
        (None, {"net:flood", "timer:"}),
        (ImpairmentSpec(loss=0.4, duplicate=0.2), {"net:flood", "net:rtx", "timer:"}),
    ],
    ids=["pristine", "lossy"],
)
def test_pending_net_and_timer_events_are_closure_free(impairment, expected_kinds):
    spec = DeploymentSpec(
        protocol="eesmr", n=7, f=2, k=2, target_height=6, seed=5, impairment=impairment
    )
    session = SessionBuilder(spec).build()
    scheduled = record_scheduled(session.sim)
    session.run_until(2.2)  # mid-flood: receptions, chains and commit timers pending
    seen = set()
    for event in scheduled:
        label = event.label
        if not label.startswith(("net:", "timer:")):
            continue
        seen.update(kind for kind in expected_kinds if label.startswith(kind))
        callback = event.callback
        assert isinstance(callback, (types.MethodType, types.FunctionType)), (label, callback)
        function = getattr(callback, "__func__", callback)
        assert function.__closure__ is None, f"{label}: {function.__qualname__} is a closure"
        assert "<locals>" not in function.__qualname__, (label, function.__qualname__)
    assert seen == expected_kinds
    assert session.network.live_floods > 0
    session.run_to_quiescence()
    assert session.network.live_floods == 0
