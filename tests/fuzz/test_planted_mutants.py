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
from repro.fuzz.corpus import CorpusEntry
from repro.session.builder import SessionBuilder
from repro.session.spec import PROTOCOLS, DeploymentSpec
from repro.testkit.faults import EquivocateAt, FaultSchedule
from repro.testkit.scenarios import judge, judge_specs
from tests.corpus.regenerate import LOSSY_RECEIVER, spec_dict

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
    the lossy node — the liveness invariant, past the loss window's
    bounded allowance (not a blanket loss-window exemption), must catch it."""
    fuzzer = Fuzzer(
        GIVEUP_CONFIG, seed=GIVEUP_SEED, builder_factory=RetransmissionGiveUpMutantBuilder
    )
    report = fuzzer.run(SEED_BUDGET)
    assert report.findings, "the zeroed retry budget must be found within the seed budget"
    shrunk = report.findings[0].shrunk
    atoms = shrunk.schedule.describe()
    assert len(atoms) <= 3
    assert {atom["kind"] for atom in atoms} == {"LossWindow"}
    assert ("eesmr", "liveness") in shrunk.failure_key


def test_a_lossy_stall_is_attributed_to_the_nodes_drops_and_giveups():
    """Mutant D over its committed reproducer: the liveness report says the
    stalled receiver lost deliveries and gave them up, not merely that it
    stalled; the stock build is clean on the same spec."""
    spec = DeploymentSpec.from_dict(spec_dict(LOSSY_RECEIVER, "eesmr"))
    verdict = judge("lossy", spec, RetransmissionGiveUpMutantBuilder)
    [report] = verdict.violations()
    assert report.name == "liveness"
    stats = verdict.evidence.trace.replica_stats[3]
    drops, giveups = stats["deliveries_dropped"], stats["delivery_giveups"]
    assert drops and giveups
    assert report.detail.startswith("[liveness @ lossy] node 3 stalled at height ")
    assert report.detail.endswith(
        f" (deliveries_dropped={drops}, delivery_giveups={giveups})"
    )
    assert judge("lossy", spec, SessionBuilder).ok


def test_saved_reproducers_load_replay_and_save_stably(tmp_path):
    """``repro fuzz --out``'s path: save_findings → Corpus.add → one file per
    finding.  Each file loads back and still fails, with the pairs it
    recorded, under the build that found it; the corpus replay judges it
    under the stock build, where a planted mutant's reproducer is clean.  Entries are
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
        label = f"corpus:{entry.entry_id}"
        mutant = judge(label, entry.build_spec(), CommitRuleMutantBuilder)
        assert {(protocol, r.name) for r in mutant.violations()} == recorded
        stock = judge(label, entry.build_spec(), SessionBuilder)
        assert stock.skip_reason is None and stock.ok
    again = fuzzer.save_findings(report, tmp_path)
    assert [path.name for path in again] == [path.name for path in written]
    assert {path.name: path.read_text() for path in tmp_path.iterdir()} == contents


def test_sharded_judging_plants_the_mutant_in_every_worker():
    """The builder seam survives the process pool: judging one equivocating
    schedule under all four protocols over two workers gives the serial
    verdicts, report for report and trace for trace, with the planted
    commit rule still forking EESMR."""
    schedule = FaultSchedule((EquivocateAt(0, round=2),))
    runs = [
        (f"fuzz:{protocol}", COMMIT_RULE_CONFIG.spec_for(schedule, protocol))
        for protocol in PROTOCOLS
    ]
    serial = judge_specs(runs, 1, CommitRuleMutantBuilder)
    sharded = judge_specs(runs, 2, CommitRuleMutantBuilder)

    def fingerprints(verdicts):
        # EESMR's run raises mid-run, so it leaves no trace to fingerprint.
        return [v.evidence.trace.fingerprint() if v.evidence else None for v in verdicts]

    assert [v.cell for v in sharded] == [cell for cell, _ in runs]
    assert [v.reports for v in sharded] == [v.reports for v in serial]
    assert fingerprints(sharded) == fingerprints(serial)
    assert fingerprints(sharded).count(None) == 1
    failing = {v.spec.protocol: [r.name for r in v.violations()] for v in sharded}
    assert failing == {
        "eesmr": ["agreement"], "sync-hotstuff": [], "optsync": [], "trusted-baseline": []
    }


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
