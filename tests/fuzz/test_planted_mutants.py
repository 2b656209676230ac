"""Meta-tests: the fuzzer must *find* deliberately planted bugs.

Mirrors the PR 1 forking-mutant meta-test, but the bug is found by search
instead of by a hand-written scenario: each test plants a mutation (via
the detector's ``builder_factory`` hook), runs the closed loop under a
fixed seed budget, and asserts that

* a finding appears within the budget,
* the shrunk reproducer is minimal (≤ 3 atoms, and only atoms of the
  kind that actually triggers the bug survive shrinking), and
* the honest control — the *same* config and seed with the stock
  builder — stays clean, so the finding is attributable to the mutation.

Seeds and budgets are fixed: the whole loop is deterministic, so these
are exact regression tests, not statistical ones.
"""

import pytest
from mutants import (
    CommitRuleMutantBuilder,
    DroppedCatchUpQcMutantBuilder,
    LeakyRelayMutantBuilder,
    RetransmissionGiveUpMutantBuilder,
)

from repro.fuzz import FuzzConfig, Fuzzer
from repro.fuzz.corpus import CorpusEntry, replay_entry
from repro.testkit.invariants import judge_reports

#: Budget the ISSUE-style acceptance is phrased in: the fuzzer must find
#: each planted bug within this many generated schedules.
SEED_BUDGET = 10

#: eesmr-only keeps each iteration to a single protocol run — the mutants
#: are both planted in the EESMR build path.
COMMIT_RULE_CONFIG = FuzzConfig(protocols=("eesmr",))
#: Re-pinned whenever new kinds join the generator's default draw set (the
#: draw stream shifts) — last for the LossWindow/DuplicateWindow/JitterWindow
#: impairment atoms; seed 7 draws an equivocation within budget.
COMMIT_RULE_SEED = 7

#: The relay-leak only compounds across drop windows, so the hunt draws
#: from that one atom kind (the generator's ``kinds`` knob exists for
#: exactly this sort of targeted campaign).
LEAKY_RELAY_CONFIG = FuzzConfig(protocols=("eesmr",), kinds=("RelayDropWindow",))
LEAKY_RELAY_SEED = 1

#: The dropped-QC mutant only bites certificate-requiring protocols, and
#: the hunt draws crash-recover windows (partitions are excluded because a
#: leader partition forks stock Sync HotStuff — see the promoted
#: ``leader-partition-fork`` differential cell — which would dirty the
#: honest control).
DROPPED_QC_CONFIG = FuzzConfig(protocols=("sync-hotstuff",), kinds=("CrashRecoverWindow",))
DROPPED_QC_SEED = 0

#: The give-up mutant only bites under dropped deliveries, so the hunt
#: draws loss windows; seed 2 lands a window the mutant cannot survive
#: (an early drop the victim never gets back) within the budget.
GIVEUP_CONFIG = FuzzConfig(protocols=("eesmr",), kinds=("LossWindow",))
GIVEUP_SEED = 2


def test_commit_rule_mutant_is_found_and_shrunk():
    fuzzer = Fuzzer(COMMIT_RULE_CONFIG, seed=COMMIT_RULE_SEED, builder_factory=CommitRuleMutantBuilder)
    report = fuzzer.run(SEED_BUDGET)
    assert report.findings, "the broken commit rule must be found within the seed budget"
    shrunk = report.findings[0].shrunk
    atoms = shrunk.schedule.describe()
    assert len(atoms) <= 3
    # Shrinking strips everything but the trigger: the twins the broken
    # rule mis-commits come from an equivocating leader.
    assert {atom["kind"] for atom in atoms} == {"EquivocateAt"}
    assert ("eesmr", "agreement") in shrunk.failure_key


def test_leaky_relay_mutant_is_found_and_shrunk():
    fuzzer = Fuzzer(LEAKY_RELAY_CONFIG, seed=LEAKY_RELAY_SEED, builder_factory=LeakyRelayMutantBuilder)
    report = fuzzer.run(SEED_BUDGET)
    assert report.findings, "the leaked relay denial must be found within the seed budget"
    shrunk = report.findings[0].shrunk
    atoms = shrunk.schedule.describe()
    assert len(atoms) <= 3
    assert {atom["kind"] for atom in atoms} == {"RelayDropWindow"}
    # One leaked denial keeps the ring connected (k = 2 tolerates it);
    # the failure needs windows on at least two distinct nodes.
    assert len({atom["node"] for atom in atoms}) >= 2
    assert ("eesmr", "liveness") in shrunk.failure_key


@pytest.mark.recovery
def test_dropped_catch_up_qc_mutant_is_found_and_shrunk():
    """A responder that drops the final catch-up QC strands every
    recovering Sync HotStuff node past its grace window — the
    window-scoped liveness invariant must catch it within the budget."""
    fuzzer = Fuzzer(
        DROPPED_QC_CONFIG, seed=DROPPED_QC_SEED, builder_factory=DroppedCatchUpQcMutantBuilder
    )
    report = fuzzer.run(SEED_BUDGET)
    assert report.findings, "the dropped catch-up QC must be found within the seed budget"
    shrunk = report.findings[0].shrunk
    atoms = shrunk.schedule.describe()
    assert len(atoms) <= 3
    assert {atom["kind"] for atom in atoms} == {"CrashRecoverWindow"}
    assert ("sync-hotstuff", "liveness") in shrunk.failure_key


def test_retransmission_giveup_mutant_is_found_and_shrunk():
    """A reliable sublayer whose retry budget silently reads zero strands
    the lossy node — the loss-budget liveness invariant (a bounded
    allowance, not a blanket loss-window exemption) must catch it."""
    fuzzer = Fuzzer(
        GIVEUP_CONFIG, seed=GIVEUP_SEED, builder_factory=RetransmissionGiveUpMutantBuilder
    )
    report = fuzzer.run(SEED_BUDGET)
    assert report.findings, "the zeroed retry budget must be found within the seed budget"
    shrunk = report.findings[0].shrunk
    atoms = shrunk.schedule.describe()
    assert len(atoms) <= 3
    assert {atom["kind"] for atom in atoms} == {"LossWindow"}
    assert ("eesmr", "loss-budget-liveness") in shrunk.failure_key


def test_saved_reproducers_load_replay_and_save_stably(tmp_path):
    """``repro fuzz --out``'s path: save_findings → Corpus.add → one file per
    finding.  Each file loads back and still fails, with the pairs it
    recorded, under the build that found it; ``replay_entry`` runs the
    stock build, where a planted mutant's reproducer is clean.  Entries are
    content-addressed, so saving again rewrites the same files."""
    fuzzer = Fuzzer(
        COMMIT_RULE_CONFIG, seed=COMMIT_RULE_SEED, builder_factory=CommitRuleMutantBuilder
    )
    report = fuzzer.run(SEED_BUDGET)
    written = fuzzer.save_findings(report, tmp_path)
    assert written and len(written) == len(report.findings)
    contents = {path.name: path.read_text() for path in written}
    for path in written:
        entry = CorpusEntry.load(path)
        assert entry.expect == "violation"
        recorded = {tuple(pair) for pair in entry.found["failures"]}
        protocol = entry.spec["protocol"]
        reports = judge_reports(
            entry.build_spec(), label=entry.entry_id, builder=CommitRuleMutantBuilder
        )
        assert {(protocol, r.name) for r in reports if not r.ok} == recorded
        _, failing = replay_entry(entry)
        assert failing == []
    again = fuzzer.save_findings(report, tmp_path)
    assert [path.name for path in again] == [path.name for path in written]
    assert {path.name: path.read_text() for path in tmp_path.iterdir()} == contents


def test_honest_controls_are_clean():
    """The stock builder under the exact same configs and seeds finds
    nothing — the meta-tests above fire because of the mutations."""
    for config, seed in (
        (COMMIT_RULE_CONFIG, COMMIT_RULE_SEED),
        (LEAKY_RELAY_CONFIG, LEAKY_RELAY_SEED),
        (DROPPED_QC_CONFIG, DROPPED_QC_SEED),
        (GIVEUP_CONFIG, GIVEUP_SEED),
    ):
        report = Fuzzer(config, seed=seed).run(SEED_BUDGET)
        assert not report.failed, [f.detection.describe() for f in report.findings]
