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

The corpus is grown by ``repro fuzz --out tests/corpus`` (live findings)
or by adding schedules to ``regenerate.py`` (curated entries).
"""

from pathlib import Path

import pytest

from repro.fuzz.corpus import Corpus, replay_entry

ENTRIES = Corpus(Path(__file__).resolve().parent).entries()


def test_corpus_is_not_empty():
    assert ENTRIES, "the committed corpus must hold at least one reproducer"


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.path.stem for entry in ENTRIES]
)
def test_corpus_entry_replays_in_the_recorded_direction(entry):
    reports, failing = replay_entry(entry)
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
