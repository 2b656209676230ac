"""Unit tests for the FaultSchedule DSL."""

import pytest

from repro.testkit.faults import (
    CrashAt,
    CrashRecoverWindow,
    DuplicateWindow,
    FaultSchedule,
    JitterWindow,
    LossWindow,
    PartitionWindow,
    RelayDropWindow,
    SilentFrom,
    crash_at,
    crash_recover,
    drop_window,
    equivocate_at,
    partition,
    schedule_from_dict,
    silent,
    stall_at,
)

from tests.conftest import make_network


def test_empty_schedule():
    schedule = FaultSchedule()
    assert schedule.faults == ()
    assert schedule.byzantine_nodes() == ()
    assert schedule.replica_behaviour(0) is None
    assert schedule.failstop_time(0) is None


def test_crash_at_maps_to_crash_behaviour():
    schedule = crash_at(2, time=5.0)
    assert schedule.byzantine_nodes() == (2,)
    assert schedule.replica_behaviour(2) == ("crash", {"crash_time": 5.0})
    assert schedule.replica_behaviour(1) is None
    assert schedule.failstop_time(2) == 5.0


def test_stall_and_equivocate_carry_trigger_round():
    assert stall_at(0, round_number=6).replica_behaviour(0) == (
        "silent_leader",
        {"trigger_round": 6},
    )
    assert equivocate_at(0, round_number=4).replica_behaviour(0) == (
        "equivocate",
        {"trigger_round": 4},
    )


def test_silent_fails_stop_baselines_immediately():
    schedule = silent(3)
    assert schedule.replica_behaviour(3) == ("silent", {})
    assert schedule.failstop_time(3) == 0.0


def test_environmental_faults_are_not_byzantine():
    schedule = drop_window(1, start=1.0, end=2.0).add(PartitionWindow(2, 0.0, 3.0))
    assert schedule.byzantine_nodes() == ()
    assert schedule.replica_behaviour(1) is None
    assert schedule.failstop_time(1) is None


def test_composition_preserves_all_faults():
    schedule = crash_at(0, 1.0).add(SilentFrom(4), RelayDropWindow(2, 0.0, 5.0))
    assert schedule.byzantine_nodes() == (0, 4)
    assert len(schedule.faults) == 3


def test_two_byzantine_behaviours_on_one_node_rejected():
    with pytest.raises(ValueError):
        FaultSchedule((CrashAt(1, 0.0), SilentFrom(1)))


def test_invalid_windows_rejected():
    with pytest.raises(ValueError):
        RelayDropWindow(0, start=5.0, end=1.0)
    with pytest.raises(ValueError):
        PartitionWindow(0, start=5.0, heal=1.0)


def test_non_fault_member_rejected():
    with pytest.raises(TypeError):
        FaultSchedule(("crash",))


def test_describe_is_deterministic_and_json_friendly():
    import json

    schedule = crash_at(0, 1.5).add(RelayDropWindow(3, 2.0, 4.0))
    description = schedule.describe()
    assert description == schedule.describe()
    assert json.dumps(description)  # serialisable
    assert description[0]["kind"] == "CrashAt"
    assert description[1] == {"kind": "RelayDropWindow", "node": 3, "start": 2.0, "end": 4.0}


def test_drop_window_toggles_relay_policy():
    sim, topology, ledger, network = make_network()
    schedule = drop_window(2, start=1.0, end=3.0)
    schedule.install(sim, network, {})
    assert not network.relay_denied(2)
    sim.run(1.5, max_events=1_000_000)
    assert network.relay_denied(2)
    sim.run(3.5, max_events=1_000_000)
    assert not network.relay_denied(2)


def test_partition_window_isolates_and_heals():
    sim, topology, ledger, network = make_network()
    schedule = partition(1, start=0.5, heal=2.0)
    schedule.install(sim, network, {})
    sim.run(1.0, max_events=1_000_000)
    assert 1 in network._partition
    sim.run(2.5, max_events=1_000_000)
    assert 1 not in network._partition


def test_byzantine_faults_never_relay():
    """As in the seed runner's worst case, a Byzantine node's relaying
    is denied from t=0 even if its misbehaviour triggers later."""
    sim, topology, ledger, network = make_network()
    crash_at(0, time=2.0).add(SilentFrom(3)).install(sim, network, {})
    assert network.relay_denied(0)
    assert network.relay_denied(3)


def test_drop_window_restores_a_composed_permanent_policy():
    """A drop window on a node that is already permanently denied (by a
    composed Byzantine fault) must not clobber that when the window closes."""
    sim, topology, ledger, network = make_network()
    schedule = FaultSchedule((CrashAt(2, time=0.0), RelayDropWindow(2, 1.0, 3.0)))
    schedule.install(sim, network, {})
    sim.run(5.0, max_events=1_000_000)
    assert network.relay_denied(2)


def test_overlapping_partition_windows_do_not_heal_early():
    """Regression: two overlapping partition windows on one node.  Before
    isolation was refcounted, the first window's heal at t=5 reconnected the
    node while the second window ([2, 10)) was still open."""
    sim, topology, ledger, network = make_network()
    schedule = partition(3, start=1.0, heal=5.0).add(PartitionWindow(3, 2.0, 10.0))
    schedule.install(sim, network, {})
    sim.run(6.0, max_events=1_000_000)
    assert 3 in network._partition, "first heal must not lift the second window"
    sim.run(10.5, max_events=1_000_000)
    assert 3 not in network._partition


def test_interleaved_drop_windows_do_not_lift_denial_early():
    """Regression: interleaved relay-drop windows [1, 5) + [2, 10).  Before
    the denial state was shared and refcounted, the first window's close at
    t=5 restored `None` and the node relayed again while the second window
    was still active."""
    sim, topology, ledger, network = make_network()
    schedule = drop_window(2, start=1.0, end=5.0).add(RelayDropWindow(2, 2.0, 10.0))
    schedule.install(sim, network, {})
    sim.run(6.0, max_events=1_000_000)
    assert network.relay_denied(2), "denial must persist until the last window closes"
    sim.run(10.5, max_events=1_000_000)
    assert not network.relay_denied(2)


def test_zero_length_windows_are_rejected_at_construction():
    """Degenerate windows (end == start, or end < start) used to install as
    silent no-ops; every windowed atom now rejects them up front."""
    with pytest.raises(ValueError, match="degenerate drop window"):
        drop_window(2, start=3.0, end=3.0)
    with pytest.raises(ValueError, match="degenerate drop window"):
        RelayDropWindow(2, 5.0, 4.0)
    with pytest.raises(ValueError, match="degenerate partition window"):
        PartitionWindow(2, 3.0, 3.0)
    with pytest.raises(ValueError, match="degenerate partition window"):
        PartitionWindow(2, 6.0, 2.0)
    with pytest.raises(ValueError, match="degenerate crash-recover window"):
        CrashRecoverWindow(2, 3.0, 3.0)
    with pytest.raises(ValueError, match="degenerate crash-recover window"):
        CrashRecoverWindow(2, 6.0, 2.0)


def test_simultaneous_window_off_and_on_events():
    """Back-to-back windows [1, 5) and [5, 9): at t=5 the first closes and
    the second opens; the node must be denied throughout [1, 9)."""
    sim, topology, ledger, network = make_network()
    schedule = drop_window(2, start=1.0, end=5.0).add(RelayDropWindow(2, 5.0, 9.0))
    schedule.install(sim, network, {})
    sim.run(5.5, max_events=1_000_000)
    assert network.relay_denied(2)
    sim.run(9.5, max_events=1_000_000)
    assert not network.relay_denied(2)


def test_same_node_byzantine_plus_interleaved_windows():
    """Windows stacked on a Byzantine node always restore the permanent
    Byzantine denial, never an intermediate window state."""
    sim, topology, ledger, network = make_network()
    schedule = FaultSchedule(
        (CrashAt(2, time=0.0), RelayDropWindow(2, 1.0, 4.0), RelayDropWindow(2, 2.0, 6.0))
    )
    schedule.install(sim, network, {})
    seen = []
    network.fault_observer = lambda *transition: seen.append(transition)
    for until in (0.5, 1.5, 3.0, 5.0, 7.0):
        sim.run(until, max_events=1_000_000)
        assert network.relay_denied(2)
    # Back at the Byzantine base, and a relay that never came back was
    # never reported as restored (nor as lost a second time).
    assert network._relay_denied[2] == 1
    assert seen == []


def test_liveness_exempt_nodes_distinguish_fault_classes():
    """Byzantine and partitioned nodes are exempt from liveness; a node
    perturbed only by relay-drop windows keeps committing and is not."""
    schedule = (
        crash_at(0, 1.0)
        .add(PartitionWindow(2, 0.0, 3.0))
        .add(RelayDropWindow(3, 1.0, 2.0))
    )
    assert schedule.liveness_exempt_nodes(end_time=0.0) == (0, 2)
    # A drop window on an otherwise-Byzantine node stays exempt.
    stacked = crash_at(1, 0.0).add(RelayDropWindow(1, 1.0, 2.0))
    assert stacked.liveness_exempt_nodes(end_time=0.0) == (1,)


def test_concurrent_impairment_sets():
    schedule = (
        crash_at(0, time=2.0)  # Byzantine: impaired for the whole run
        .add(RelayDropWindow(2, 1.0, 5.0))
        .add(PartitionWindow(3, 4.0, 8.0))
        .add(RelayDropWindow(4, 9.0, 9.5))  # disjoint tail window
    )
    sets = schedule.concurrent_impairment_sets()
    assert frozenset({0, 2}) in sets  # during [1, 4)
    assert frozenset({0, 2, 3}) in sets  # during [4, 5)
    assert frozenset({0, 4}) in sets  # during [9, 9.5)
    assert FaultSchedule().concurrent_impairment_sets() == []


# ------------------------------------------------ recovery-bearing atoms
def test_crash_recover_window_is_correct_not_byzantine():
    schedule = crash_recover(2, start=1.0, heal=4.0)
    assert schedule.byzantine_nodes() == ()
    assert schedule.max_byzantine() == 0
    assert schedule.replica_behaviour(2) is None
    assert schedule.failstop_time(2) is None


def test_crash_recover_window_powers_the_node_off_and_on():
    sim, topology, ledger, network = make_network()
    crash_recover(3, start=2.0, heal=6.0).install(sim, network, {})
    sim.run(3.0, max_events=1_000_000)
    assert 3 in network._partition
    sim.run(6.5, max_events=1_000_000)
    assert 3 not in network._partition


def test_recovery_bearing_atoms_yield_controllers():
    from repro.recovery.controller import RecoveryController
    from repro.testkit.faults import CrashRecoverWindow as CRW

    for atom in (PartitionWindow(1, 0.0, 3.0), CRW(1, 0.0, 3.0)):
        controller = atom.controller()
        assert isinstance(controller, RecoveryController)
        assert controller.fault is atom
    schedule = partition(0, 1.0, 2.0).add(CRW(1, 0.0, 3.0))
    assert len(schedule.controllers()) == 2


def test_liveness_exemption_is_window_scoped():
    """Partition/crash-recover exemptions lapse at heal + CATCH_UP_GRACE;
    Byzantine exemptions never do; drop windows never exempt at all."""
    from repro.testkit.faults import CATCH_UP_GRACE

    schedule = (
        crash_at(0, 1.0)
        .add(PartitionWindow(2, 0.0, 3.0))
        .add(CrashRecoverWindow(1, 0.0, 4.0))
        .add(RelayDropWindow(3, 1.0, 2.0))
    )
    # At the start every recovering node is exempt.
    assert schedule.liveness_exempt_nodes(end_time=0.0) == (0, 1, 2)
    # Before any grace window lapses, everything is still exempt.
    assert schedule.liveness_exempt_nodes(end_time=2.0) == (0, 1, 2)
    # Node 2's grace ends at 3 + CATCH_UP_GRACE, node 1's at 4 + grace.
    assert schedule.liveness_exempt_nodes(end_time=3.0 + CATCH_UP_GRACE) == (0, 1)
    assert schedule.liveness_exempt_nodes(end_time=4.0 + CATCH_UP_GRACE) == (0,)
    # The Byzantine crash is exempt forever.
    assert schedule.liveness_exempt_nodes(end_time=1e9) == (0,)


def test_crash_recover_narrowing_stays_inside_the_window():
    atom = CrashRecoverWindow(2, 1.0, 9.0)
    narrowed = atom.narrowed(2.0, 5.0)
    assert (narrowed.start, narrowed.heal) == (2.0, 5.0)
    assert narrowed.node == 2
    with pytest.raises(ValueError):
        atom.narrowed(0.5, 5.0)
    with pytest.raises(ValueError):
        atom.narrowed(2.0, 9.5)


def test_crash_recover_rejects_malformed_fields():
    with pytest.raises(ValueError, match="must be a number"):
        CrashRecoverWindow(1, True, 5.0)
    with pytest.raises(ValueError, match="must be a number"):
        CrashRecoverWindow(1, 0.0, "soon")
    with pytest.raises(ValueError, match="cannot be negative"):
        CrashRecoverWindow(1, -1.0, 5.0)


NAN, INF = float("nan"), float("inf")

WINDOWED_ATOMS = (
    RelayDropWindow,
    PartitionWindow,
    CrashRecoverWindow,
    LossWindow,
    DuplicateWindow,
    JitterWindow,
)


@pytest.mark.parametrize("atom", WINDOWED_ATOMS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize(
    "start, end",
    [
        (-1.0, 3.0), (True, 3.0), ("1.0", 3.0), (1.0, "soon"), (3.0, 3.0), (5.0, 2.0),
        (NAN, 3.0), (1.0, NAN), (INF, 3.0), (1.0, INF), (-INF, 3.0), (1.0, -INF),
    ],
    ids=[
        "negative-start", "bool-start", "str-start", "str-end", "end-eq-start", "end-lt-start",
        "nan-start", "nan-end", "inf-start", "inf-end", "neg-inf-start", "neg-inf-end",
    ],
)
def test_every_windowed_atom_validates_its_bounds_alike(atom, start, end):
    """One shared bounds check: what a corpus file or ``--spec`` can get
    wrong is a ``ValueError`` at construction for all six windowed atoms,
    never a ``SimulationError`` (or, for the non-finite bounds ``json``
    parses, an ``OverflowError``) when the session is built."""
    with pytest.raises(ValueError):
        atom(4, start, end)
    end_key = "heal" if atom in (PartitionWindow, CrashRecoverWindow) else "end"
    entry = {"kind": atom.__name__, "node": 4, "start": start, end_key: end}
    with pytest.raises(ValueError, match="fault entry 1: "):
        schedule_from_dict([{"kind": "SilentFrom", "node": 0}, entry])


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "neg-inf"])
def test_non_finite_times_name_their_field_and_entry(bad):
    """``json`` parses ``NaN`` and ``Infinity``: every time an atom hands to
    the event queue is checked to be finite where the atom is built."""
    from repro.testkit.faults import LeaderFollowingCrash

    with pytest.raises(ValueError, match="crash time must be finite"):
        CrashAt(2, bad)
    with pytest.raises(ValueError, match="adaptive start must be finite"):
        LeaderFollowingCrash(start=bad)
    with pytest.raises(ValueError, match="adaptive interval must be finite"):
        LeaderFollowingCrash(interval=bad)
    with pytest.raises(ValueError, match="partition heal must be finite"):
        PartitionWindow(2, 1.0, bad)
    with pytest.raises(ValueError, match="LossWindow loss must be"):
        LossWindow(2, 1.0, 5.0, bad)
    with pytest.raises(ValueError, match="fault entry 1: crash time must be finite"):
        schedule_from_dict(
            [{"kind": "SilentFrom", "node": 0}, {"kind": "CrashAt", "node": 2, "time": bad}]
        )


def test_a_new_window_atom_declares_only_what_differs():
    """The window base owns bounds, narrowing, the outage interval and the
    open/close scheduling; an atom supplies fields, names and two effects."""
    from dataclasses import dataclass
    from typing import ClassVar, Tuple

    from repro.testkit.faults import _Window

    @dataclass(frozen=True)
    class Probe(_Window):
        start: float = 0.0
        end: float = 0.0
        window_name: ClassVar[str] = "probe"
        labels: ClassVar[Tuple[str, str]] = ("probe-on", "probe-off")

        def open(self, network, replicas):
            network.append(("open", self.node))

        def close(self, network, replicas):
            network.append(("close", self.node))

    with pytest.raises(ValueError, match="degenerate probe window"):
        Probe(1, 2.0, 2.0)
    atom = Probe(1, 1.0, 4.0)
    assert atom.describe() == {"kind": "Probe", "node": 1, "start": 1.0, "end": 4.0}
    assert atom.impairment() == (1.0, 4.0)
    assert atom.narrowed(2.0, 3.0) == Probe(1, 2.0, 3.0)
    sim, *_ = make_network()
    calls = []
    atom.install(sim, calls, {})
    sim.run(5.0, max_events=1_000_000)
    assert calls == [("open", 1), ("close", 1)]
