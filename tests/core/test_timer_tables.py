"""The timer contract: one table per protocol, in multiples of Δ.

Each leader-based replica class maps every timer it arms to a whole
multiple of Δ (``TIMERS``), and ``LeaderReplica.timer_delay(name)`` is the
one place in ``src/repro/core`` that reads ``config.delta``.  This file
holds each protocol's table as a literal and shows every row is live: a
one-entry edit (+1 Δ, through ``TimerTableMutantBuilder``) moves the trace
fingerprint of the scenario named for that row.  ``docs/api.md`` prints the
same tables, and a test here keeps the two in step.

ROADMAP item 16's four planted timer mutants are one-entry edits too.
Today only byte pins catch them: each moves the ``events`` section pin of
its silent-leader run, and the invariant battery passes the same run (a
strict xfail until a timing invariant exists).
"""

import ast
import functools
import re
from pathlib import Path

import pytest

from repro.core.adversary import FaultPlan
from repro.core.baselines.optsync import OptSyncReplica
from repro.core.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.core.eesmr.replica import EesmrReplica
from repro.session.builder import SessionBuilder
from repro.session.spec import DeploymentSpec
from repro.testkit.faults import CrashAt, FaultSchedule
from repro.testkit.scenarios import judge
from repro.testkit.trace import TraceRecorder
from tests.fuzz.mutants import TimerTableMutantBuilder
from tests.testkit.test_trace_pins import PINS, faulty_leader_spec, sections

REPO = Path(__file__).resolve().parents[2]

EESMR_TIMERS = {
    "blame": 4,
    "commit": 4,
    "quit-view": 1,
    "finish-quit": 5,
    "start-new-view": 1,
    "new-view-blame": 8,
    "new-view-proposal": 4,
    "round-2-blame": 6,
}

SYNC_HOTSTUFF_TIMERS = {
    "blame": 4,
    "commit": 2,
    "quit-view": 2,
    "new-view-blame": 8,
    "new-view-propose": 2,
}

OPTSYNC_TIMERS = {**SYNC_HOTSTUFF_TIMERS, "responsive-commit": 1}

#: protocol -> (class, its table).
PROTOCOLS = {
    "eesmr": (EesmrReplica, EESMR_TIMERS),
    "sync-hotstuff": (SyncHotStuffReplica, SYNC_HOTSTUFF_TIMERS),
    "optsync": (OptSyncReplica, OPTSYNC_TIMERS),
}

#: Every scenario is n=7, f=2, k=2, eight blocks, seed 17 (the pinned
#: faulty-leader runs' shape) plus its faults.  A ``T_blame`` row needs a
#: run in which that timer fires.
SCENARIOS = {
    "honest": {},
    # The view-1 leader stops proposing: steady T_blame fires, then the
    # whole view change runs once.
    "silent-leader": {"fault_plan": FaultPlan(faulty=(0,), behaviour="silent_leader")},
    # The leaders of views 1 and 2 are down: the new view's T_blame fires.
    "crashed-leaders": {"fault_plan": FaultPlan(faulty=(0, 1), behaviour="crash")},
    # Node 1 leads view 2.  It proposes round 1 at t=78.05 and crashes at
    # 78.5, after the round-1 votes but before its round-2 certificate, so
    # the round-2 T_blame fires.
    "round-2-crash": {"fault_schedule": FaultSchedule((CrashAt(0, 0.0), CrashAt(1, 78.5)))},
}

#: protocol -> row -> the scenario whose fingerprint a +1 Δ edit of the row moves.
ROW_SCENARIOS = {
    "eesmr": {
        "blame": "silent-leader",
        "commit": "honest",
        "quit-view": "silent-leader",
        "finish-quit": "silent-leader",
        "start-new-view": "silent-leader",
        "new-view-blame": "crashed-leaders",
        "new-view-proposal": "silent-leader",
        "round-2-blame": "round-2-crash",
    },
    "sync-hotstuff": {
        "blame": "silent-leader",
        "commit": "honest",
        "quit-view": "silent-leader",
        "new-view-blame": "crashed-leaders",
        "new-view-propose": "silent-leader",
    },
    "optsync": {
        "blame": "silent-leader",
        "commit": "honest",
        "quit-view": "silent-leader",
        "new-view-blame": "crashed-leaders",
        "new-view-propose": "silent-leader",
        "responsive-commit": "honest",
    },
}

#: ROADMAP item 16's planted timer mutants: (protocol, row, multiple).
ITEM_16_MUTANTS = {
    "eesmr-commit-5": ("eesmr", "commit", 5),
    "sync-hotstuff-commit-3": ("sync-hotstuff", "commit", 3),
    "eesmr-blame-6": ("eesmr", "blame", 6),
    "sync-hotstuff-quit-view-3": ("sync-hotstuff", "quit-view", 3),
}


def scenario_spec(protocol: str, scenario: str) -> DeploymentSpec:
    return DeploymentSpec(
        protocol=protocol, n=7, f=2, k=2, target_height=8, seed=17, **SCENARIOS[scenario]
    )


def mutant(timer: str, multiple: int):
    return functools.partial(TimerTableMutantBuilder, timer=timer, multiple=multiple)


def record(spec: DeploymentSpec, builder=SessionBuilder):
    return builder(spec, recorder=TraceRecorder()).build().run().finish().trace


def fingerprint(spec: DeploymentSpec, builder=SessionBuilder) -> str:
    return record(spec, builder).fingerprint()


@functools.lru_cache(maxsize=None)
def stock_fingerprint(protocol: str, scenario: str) -> str:
    return fingerprint(scenario_spec(protocol, scenario))


def rows():
    for protocol, (_, table) in PROTOCOLS.items():
        for name in table:
            yield pytest.param(protocol, name, id=f"{protocol}-{name}")


# --------------------------------------------------------------------- tests
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_table_is_the_literal(protocol):
    cls, table = PROTOCOLS[protocol]
    assert cls.TIMERS == table


def delta_reads():
    """(path, enclosing function) of every ``config.delta`` read in src/repro/core."""
    found = []
    for path in sorted((REPO / "src" / "repro" / "core").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "delta"
                    and isinstance(node.value, (ast.Attribute, ast.Name))
                    and getattr(node.value, "attr", getattr(node.value, "id", None)) == "config"
                ):
                    found.append((path.relative_to(REPO).as_posix(), function.name))
    return found


def test_only_timer_delay_reads_delta():
    assert delta_reads() == [("src/repro/core/replica_base.py", "timer_delay")]


@pytest.mark.parametrize("protocol, name", list(rows()))
def test_every_row_is_live(protocol, name):
    # A row without a scenario fails here by name, and gets one.
    scenario = ROW_SCENARIOS[protocol][name]
    spec = scenario_spec(protocol, scenario)
    multiple = PROTOCOLS[protocol][1][name]
    moved = fingerprint(spec, mutant(name, multiple + 1))
    assert moved != stock_fingerprint(protocol, scenario), (
        f"{protocol} {name} {multiple}Δ -> {multiple + 1}Δ left {scenario!r} unchanged"
    )


def documented_tables():
    """protocol -> {row: multiple} from docs/api.md's "Every Δ-multiple" table."""
    text = (REPO / "docs" / "api.md").read_text(encoding="utf-8")
    section = text.split("Every Δ-multiple", 1)[1].split("\n|", 1)[1]
    lines = ("|" + section).split("\n\n", 1)[0].splitlines()
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    columns = {"EESMR": "eesmr", "Sync HotStuff": "sync-hotstuff", "OptSync": "optsync"}
    tables = {protocol: {} for protocol in columns.values()}
    for line in lines[2:]:
        cells = dict(zip(header, (cell.strip() for cell in line.strip("|").split("|"))))
        name = re.fullmatch(r"`([a-z0-9-]+)`", cells["timer"]).group(1)
        for column, protocol in columns.items():
            value = cells[column]
            if value != "—":
                multiple = re.fullmatch(r"(\d*)Δ", value).group(1)
                tables[protocol][name] = int(multiple or 1)
    return tables


def test_the_documented_tables_are_the_code():
    assert documented_tables() == {protocol: table for protocol, (_, table) in PROTOCOLS.items()}


@pytest.mark.parametrize("label", ITEM_16_MUTANTS)
def test_item_16_mutant_moves_its_byte_pin(label):
    # A timer that fires later moves the event schedule, whatever else it moves.
    protocol, name, multiple = ITEM_16_MUTANTS[label]
    trace = record(faulty_leader_spec("silent_leader", protocol), mutant(name, multiple))
    assert sections(trace)["events"] != PINS[f"silent_leader/{protocol}"]["events"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: no invariant bounds when a node commits")
@pytest.mark.parametrize("label", ITEM_16_MUTANTS)
def test_item_16_mutant_fails_the_battery(label):
    protocol, name, multiple = ITEM_16_MUTANTS[label]
    spec = faulty_leader_spec("silent_leader", protocol)
    assert not judge(label, spec, mutant(name, multiple)).ok
