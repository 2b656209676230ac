"""Generator tests: determinism, and the Lemma A.5 feasibility gate.

The rejection tests do not trust the generator's own ``feasibility()``
verdict — they re-derive the conditions independently (quorum bound from
``max_byzantine``, strong connectivity from the topology object) for
every emitted schedule, so a gate that silently stopped checking would be
caught here.
"""

import pytest

from repro.fuzz import FuzzConfig, ScheduleGenerator
from repro.fuzz.generator import TIME_QUANTUM
from repro.session.builder import build_topology
from repro.testkit.faults import FaultSchedule, LeaderFollowingCrash


def describe_all(generator, iterations):
    return [schedule.describe() for schedule in generator.schedules(iterations)]


# ------------------------------------------------------------------ determinism
def test_same_seed_same_schedule_stream():
    config = FuzzConfig()
    first = describe_all(ScheduleGenerator(config, seed=7), 12)
    second = describe_all(ScheduleGenerator(config, seed=7), 12)
    assert first == second


def test_different_seeds_diverge():
    config = FuzzConfig()
    first = describe_all(ScheduleGenerator(config, seed=7), 12)
    second = describe_all(ScheduleGenerator(config, seed=8), 12)
    assert first != second


def test_times_land_on_the_quantum_grid():
    for schedule in ScheduleGenerator(FuzzConfig(), seed=3).schedules(15):
        for atom in schedule.describe():
            for key in ("time", "start", "end", "heal", "interval"):
                if key in atom:
                    quanta = atom[key] / TIME_QUANTUM
                    assert quanta == int(quanta), (atom, key)


# ------------------------------------------------------------------ feasibility
def test_emitted_schedules_satisfy_lemma_a5_independently():
    """Every emitted schedule passes an *independent* re-derivation of the
    feasibility conditions: 2f < n over the worst-case Byzantine count
    (adaptive budgets included), and correct-node strong connectivity
    under every concurrently impaired set."""
    config = FuzzConfig(kinds=("RelayDropWindow", "PartitionWindow", "SilentFrom", "LeaderFollowingCrash"))
    generator = ScheduleGenerator(config, seed=11)
    for schedule in generator.schedules(20):
        worst = schedule.max_byzantine()
        assert 2 * worst < config.n
        topology = build_topology(config.spec_for(schedule, "eesmr"))
        bound = topology.max_faults_necessary_condition()
        for impaired in schedule.concurrent_impairment_sets():
            assert topology.is_strongly_connected(exclude=impaired), impaired
        dynamic = schedule.dynamic_budget()
        if dynamic:
            static_worst = max(
                (len(s) for s in schedule.concurrent_impairment_sets()), default=0
            )
            assert dynamic + static_worst <= bound


def test_adaptive_budgets_are_charged_against_the_quorum_bound():
    """With n = 4 a budget-2 adaptive atom would mean f = 2 and 2f >= n,
    so the generator must reject those draws and only emit budget-1
    atoms — the budget accounting half of the Lemma A.5 gate."""
    config = FuzzConfig(n=4, kinds=("LeaderFollowingCrash",), max_adaptive_budget=2)
    generator = ScheduleGenerator(config, seed=5)
    schedules = list(generator.schedules(15))
    for schedule in schedules:
        for atom in schedule.faults:
            assert isinstance(atom, LeaderFollowingCrash)
            assert atom.budget == 1
    assert generator.rejected > 0, "some budget-2 draws must have been rejected"


def test_rejection_reasons_name_the_lemma():
    """The gate's verdict for an over-budget schedule cites the bound."""
    config = FuzzConfig(n=4)
    generator = ScheduleGenerator(config, seed=0)
    reason = generator.feasibility(
        FaultSchedule((LeaderFollowingCrash(budget=2, start=0.0, interval=1.0),))
    )
    assert reason is not None
    assert "2f < n" in reason or "Lemma A.5" in reason


def test_generator_gives_up_after_max_attempts():
    """A config whose draws are (deterministically) infeasible on the
    first attempt raises rather than spinning: seed 1's first draw under
    n = 4 is a budget-2 adaptive atom, and max_attempts = 1 forbids a
    redraw."""
    config = FuzzConfig(
        n=4, kinds=("LeaderFollowingCrash",), max_adaptive_budget=2, max_attempts=1
    )
    generator = ScheduleGenerator(config, seed=1)
    with pytest.raises(RuntimeError, match="no feasible schedule"):
        generator.generate()
    assert generator.rejected == 1


# ------------------------------------------------------------------ config
def test_config_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown fault kinds"):
        FuzzConfig(kinds=("CrashAt", "NotAFault"))


def test_spec_provisions_f_for_the_adaptive_budget():
    config = FuzzConfig(n=7)
    schedule = FaultSchedule((LeaderFollowingCrash(budget=2, start=0.0, interval=1.0),))
    assert config.spec_for(schedule, "eesmr").f == 2
    assert config.spec_for(None, "eesmr").f == 1


# ------------------------------------------------------------------ window grid
WINDOWED_KINDS = ("RelayDropWindow", "PartitionWindow", "CrashRecoverWindow")


@pytest.mark.parametrize("kind", WINDOWED_KINDS)
def test_generated_windows_are_never_degenerate(kind):
    """Regression for the zero-length-window rejection: every window the
    generator emits — for each windowed atom kind separately — spans at
    least one quantum, so construction-time validation never fires on a
    generated schedule."""
    generator = ScheduleGenerator(FuzzConfig(kinds=(kind,)), seed=4)
    atoms = [atom for s in generator.schedules(25) for atom in s.describe()]
    assert atoms, "the kinds-restricted generator must emit something"
    for atom in atoms:
        assert atom["kind"] == kind
        start, end = atom["start"], atom.get("end", atom.get("heal"))
        assert end - start >= TIME_QUANTUM - 1e-9, atom


def test_default_kinds_include_crash_recover_windows():
    """CrashRecoverWindow is part of the default fuzzing grammar (the
    nightly core leg runs with no ``--kinds`` filter)."""
    from repro.fuzz.generator import DEFAULT_KINDS

    assert "CrashRecoverWindow" in DEFAULT_KINDS
    kinds = {
        atom["kind"]
        for s in ScheduleGenerator(FuzzConfig(), seed=2).schedules(60)
        for atom in s.describe()
    }
    assert "CrashRecoverWindow" in kinds
