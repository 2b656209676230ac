"""Replay every committed corpus entry — the fuzzer's regression lane.

Each ``*.json`` file next to this test is a shrunk reproducer that once
demonstrated something (a planted-mutant bug, or a live differential
finding); replaying them on every run pins the behaviour in the recorded
direction:

* ``expect: "clean"`` — the bug was planted in a mutant (or since
  fixed): the honest code must satisfy every invariant on this schedule;
* ``expect: "violation"`` — a live finding (e.g. the Sync HotStuff
  leader-partition fork): the run must still fail, and with the recorded
  invariants — if it stops reproducing, the entry is stale and should be
  flipped to ``clean`` with the fix that did it.

Replay is ``judge("corpus:<id>", entry.build_spec(), SessionBuilder)``,
which passes the feasibility gate first, so each replay also asserts that
the entry actually ran: a ``clean`` entry that became infeasible would
otherwise pass with no run at all.

The corpus is grown by ``repro fuzz --out tests/corpus`` (live findings)
or by adding schedules to ``regenerate.py`` (curated entries).
"""

from pathlib import Path

import pytest

from repro.fuzz import FuzzConfig
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.session.builder import SessionBuilder
from repro.testkit.faults import FaultSchedule, SilentFrom
from repro.testkit.scenarios import judge

ENTRIES = Corpus(Path(__file__).resolve().parent).entries()


def replay(entry):
    return judge(f"corpus:{entry.entry_id}", entry.build_spec(), SessionBuilder)


def test_corpus_is_not_empty():
    assert ENTRIES, "the committed corpus must hold at least one reproducer"


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.path.stem for entry in ENTRIES]
)
def test_corpus_entry_replays_in_the_recorded_direction(entry):
    verdict = replay(entry)
    assert verdict.skip_reason is None, f"{entry.path.name} no longer runs: {verdict.skip_reason}"
    failing = verdict.violations()
    failed_names = {report.name for report in failing}
    if entry.expect == "clean":
        assert not failing, [report.detail for report in failing]
    else:
        assert failing, f"{entry.path.name} no longer reproduces; flip it to clean?"
        protocol = entry.spec["protocol"]
        recorded = {
            invariant
            for proto, invariant in entry.found.get("failures", [])
            if proto == protocol
        }
        assert recorded <= failed_names, (
            f"{entry.path.name} fails, but not with the recorded invariants "
            f"{sorted(recorded)} (got {sorted(failed_names)})"
        )


def test_an_infeasible_entry_replays_as_a_skip_not_a_pass(tmp_path):
    """Three silent nodes at n = 5 break 2f < n: the replay is a skip
    verdict with that reason and no reports, which the replay test above
    refuses even for a ``clean`` entry."""
    schedule = FaultSchedule((SilentFrom(1), SilentFrom(2), SilentFrom(3)))
    spec = FuzzConfig().spec_for(schedule, "eesmr")
    path = Corpus(tmp_path).add(
        spec.to_dict(), expect="clean", found={}, note="planted", slug="infeasible"
    )
    verdict = replay(CorpusEntry.load(path))
    assert verdict.cell.startswith("corpus:")
    assert "2f < n" in verdict.skip_reason
    assert verdict.reports == [] and verdict.result is None
