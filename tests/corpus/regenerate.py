"""Regenerate the committed reproducer corpus, byte for byte.

Run from the repo root::

    PYTHONPATH=src python tests/corpus/regenerate.py

Every entry here came out of a real fuzz campaign (``repro fuzz`` or the
planted-mutant meta-tests); this script rebuilds them from their recorded
schedules so the committed files stay canonical (content-hashed names,
sorted-key JSON) if the corpus schema ever changes.  Entry files are
what CI replays — see ``test_corpus_replay.py``.  When the schema
changes, run the script and delete the files it no longer writes;
``test_corpus_is_regenerated.py`` fails until the two agree.
"""

import dataclasses
from pathlib import Path

from repro.fuzz import FuzzConfig
from repro.fuzz.corpus import Corpus
from repro.testkit.faults import schedule_from_dict

ROOT = Path(__file__).resolve().parent

#: The fuzzer's standard deployment (n=5 ring-k2 over BLE, spaced blocks).
CONFIG = FuzzConfig()


def spec_dict(schedule_entries, protocol, **overrides):
    schedule = schedule_from_dict(schedule_entries) if schedule_entries else None
    return dataclasses.replace(CONFIG.spec_for(schedule, protocol), **overrides).to_dict()


#: A partitioned *leader*: fuzz seed 1 found that a 0.25 s partition of
#: node 0 forks Sync HotStuff — its 2Δ commit-by-timeout fires while the
#: rest of the cluster view-changes past it.  A synchronous protocol is
#: only safe while the synchrony assumption holds; the partition breaks
#: it, and the fuzzer's shrinker narrowed the break to a single quantum.
LEADER_PARTITION = [{"kind": "PartitionWindow", "node": 0, "start": 7.0, "heal": 7.25}]

#: Mutant A's shrunk reproducer (see tests/fuzz/mutants.py): one
#: equivocating leader.  On main the honest commit rule blames instead of
#: committing a twin, so the replay must be clean.
EQUIVOCATING_LEADER = [
    {"kind": "EquivocateAt", "node": 0, "round": 2, "baseline_failstop": 1.0}
]

#: Mutant B's shrunk reproducer: two short relay-drop windows on adjacent
#: ring nodes.  On main each heal restores the relay policy (refcounted),
#: so liveness holds; under the leaked-allow_relay mutant the denials
#: accumulated and disconnected the ring.
ADJACENT_DROP_WINDOWS = [
    {"kind": "RelayDropWindow", "node": 1, "start": 4.75, "end": 5.0},
    {"kind": "RelayDropWindow", "node": 2, "start": 0.5, "end": 0.75},
]

#: Mutant D's shrunk reproducer: one short loss window over a receiver
#: just as the first block floods.  On main the reliable sublayer retries
#: the dropped hop and the node catches up inside its loss-budget
#: allowance; under the zeroed-retry mutant the drop was final and the
#: loss-budget liveness invariant fired once the allowance expired.
LOSSY_RECEIVER = [
    {"kind": "LossWindow", "node": 3, "start": 0.25, "end": 0.75, "loss": 0.5}
]

#: ROADMAP item 1's reproducer, and it needs no fault at all: the
#: standard deployment at seed 29.  Before the proposer derived its batch
#: from the chain it extends, every pipelined block re-proposed its
#: parent's command — OptSync committed ``c0-0, c0-0, c0-1`` (item 1(c),
#: which also broke the fault-free same-log check) and EESMR with
#: back-to-back proposals committed ``c0-0`` three times.
FAULT_FREE = []

#: ROADMAP item 1(b), live: a power cycle of node 4 at run seed 14.  With
#: OptSync's 3n/4+1 = 4 quorum and partial vote forwarding a non-leader
#: hears its two neighbours' votes plus its own — 3 < 4 — and learns the
#: certificate over block h from proposal h+1; after ``target_height``
#: there is no such proposal, so only the view's leader ever certifies the
#: last block and only it can serve a height-3 suffix the recovering node
#: may adopt.  The recovery controller's five attempts rotate over four
#: peers and at this seed reach node 0 while the target was still 2, then
#: give up one block short.  Sync HotStuff's n/2+1 = 3 is within a
#: non-leader's reach, so other peers serve the certified tip: the control.
CRASH_RECOVER = [{"kind": "CrashRecoverWindow", "node": 4, "start": 1.0, "heal": 6.0}]


def regenerate(root: Path = ROOT) -> Corpus:
    """Write every curated entry under ``root``; returns the corpus there."""
    corpus = Corpus(root)
    corpus.add(
        spec_dict(LEADER_PARTITION, "sync-hotstuff"),
        expect="violation",
        found={
            "seed": 1,
            "iteration": 0,
            "failures": [["sync-hotstuff", "agreement"]],
            "source": "repro fuzz --seed 1",
        },
        note="leader partition breaks the synchrony assumption; "
        "commit-by-timeout forks Sync HotStuff",
        slug="shs-leader-partition",
    )
    corpus.add(
        spec_dict(LEADER_PARTITION, "eesmr"),
        expect="clean",
        found={"seed": 1, "source": "repro fuzz --seed 1 (differential control)"},
        note="the same leader partition under EESMR: the 4Δ quiet-period "
        "commit survives where the baseline forks",
        slug="eesmr-leader-partition",
    )
    corpus.add(
        spec_dict(EQUIVOCATING_LEADER, "eesmr"),
        expect="clean",
        found={
            "seed": 2,
            "mutant": "CommitRuleMutantBuilder",
            "failures": [["eesmr", "agreement"]],
            "source": "tests/fuzz/test_planted_mutants.py",
        },
        note="mutant A reproducer: forks the broken commit rule, clean on main",
        slug="eesmr-equivocating-leader",
    )
    corpus.add(
        spec_dict(ADJACENT_DROP_WINDOWS, "eesmr"),
        expect="clean",
        found={
            "seed": 1,
            "mutant": "LeakyRelayMutantBuilder",
            "failures": [["eesmr", "liveness"]],
            "source": "tests/fuzz/test_planted_mutants.py",
        },
        note="mutant B reproducer: starves liveness when relay heals leak, "
        "clean on main",
        slug="eesmr-adjacent-drop-windows",
    )
    corpus.add(
        spec_dict(LOSSY_RECEIVER, "eesmr"),
        expect="clean",
        found={
            "seed": 2,
            "mutant": "RetransmissionGiveUpMutantBuilder",
            "failures": [
                ["eesmr", "liveness"],
                ["eesmr", "loss-budget-liveness"],
            ],
            "source": "tests/fuzz/test_planted_mutants.py",
        },
        note="mutant D reproducer: a zeroed retry budget strands the lossy "
        "receiver past its loss-budget allowance, clean on main",
        slug="eesmr-lossy-receiver",
    )
    corpus.add(
        spec_dict(FAULT_FREE, "optsync"),
        expect="clean",
        found={
            "seed": 29,
            "failures": [["optsync", "unique-commit"]],
            "source": "ROADMAP item 1(c), seed scan by hand",
        },
        note="fault-free OptSync committed c0-0,c0-0,c0-1 while the proposer "
        "read the pool head; clean since batches exclude uncommitted ancestors",
        slug="optsync-duplicate-commit",
    )
    corpus.add(
        spec_dict(FAULT_FREE, "eesmr", block_interval=0.0),
        expect="clean",
        found={
            "seed": 29,
            "failures": [["eesmr", "unique-commit"]],
            "source": "ROADMAP item 1(a), seed scan by hand",
        },
        note="fault-free EESMR with back-to-back proposals committed c0-0 three "
        "times; clean since batches exclude uncommitted ancestors",
        slug="eesmr-duplicate-commit",
    )
    corpus.add(
        spec_dict(CRASH_RECOVER, "optsync", seed=14),
        expect="clean",
        found={
            "seed": 14,
            "failures": [["optsync", "liveness"]],
            "source": "ROADMAP item 1(b), run-seed scan 0-59 by hand "
            "(also stalls at 32, 39, 51, 58)",
        },
        note="stalled one block short while only the leader certified the last "
        "block under a 3n/4+1 quorum and the recovering node's retry budget ran "
        "out before it asked the leader again; clean since OptSync certifies "
        "at n/2+1, so any of several peers serves the certified tip",
        slug="optsync-crash-recover-stall",
    )
    corpus.add(
        spec_dict(CRASH_RECOVER, "sync-hotstuff", seed=14),
        expect="clean",
        found={"seed": 14, "source": "ROADMAP item 1(b) (differential control)"},
        note="the same power cycle under Sync HotStuff: non-leaders reach the "
        "n/2+1 quorum, so any of several peers serves the certified tip",
        slug="shs-crash-recover",
    )
    return corpus


if __name__ == "__main__":
    for entry in regenerate().entries():
        print(f"{entry.path.name}: expect={entry.expect}")
