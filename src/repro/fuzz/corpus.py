"""The reproducer corpus: shrunk findings persisted as replayable JSON.

Every schedule that survives the generate → detect → shrink loop is worth
keeping: it once demonstrated a bug (in a planted mutant or in the real
code), and replaying it forever is how the scenario surface grows beyond
the hand-curated matrix.  A corpus entry is one JSON file holding

* ``spec`` — the full :meth:`~repro.session.spec.DeploymentSpec.to_dict`
  of the shrunk reproducer (protocol, deployment, fault schedule);
* ``expect`` — what replaying it on the *current* code should produce:
  ``"clean"`` (the bug is fixed or was planted in a mutant; the run must
  satisfy every invariant — the regression direction) or ``"violation"``
  (a live, unfixed finding; the run must still fail);
* ``found`` — provenance: the fuzz seed, the mutant (if any), and the
  (protocol, invariant) pairs that failed when it was found.

Entries are written with a canonical JSON encoding and named by a content
hash, so regenerating the corpus from the same findings is byte-stable
and collisions are self-evident.  ``tests/corpus/`` holds the committed
corpus; its pytest collector replays every entry on every CI run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.session.spec import DeploymentSpec
from repro.net.impairment import SpecError, read_json
from repro.testkit.invariants import InvariantReport, judge_reports

#: Corpus entry schema version (bump on incompatible changes).
CORPUS_FORMAT = 1


def canonical_json(payload: object) -> str:
    """The one JSON encoding used for hashing and on-disk entries."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _content_id(payload: dict) -> str:
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return digest[:10]


@dataclass
class CorpusEntry:
    """One persisted reproducer."""

    entry_id: str
    spec: dict
    expect: str = "clean"
    found: dict = field(default_factory=dict)
    note: str = ""
    path: Optional[Path] = None

    @classmethod
    def load(cls, path: Path) -> "CorpusEntry":
        data = read_json(path, dict)
        fmt = data.get("format")
        if fmt != CORPUS_FORMAT:
            raise SpecError(f"unsupported corpus format {fmt!r}", str(path))
        expect = data.get("expect")
        if expect not in ("clean", "violation"):
            raise SpecError(f"expect must be 'clean' or 'violation', got {expect!r}", str(path))
        missing = [key for key in ("id", "spec") if key not in data]
        if missing:
            raise SpecError(f"corpus entry lacks {missing}", str(path))
        return cls(
            entry_id=data["id"],
            spec=data["spec"],
            expect=expect,
            found=data.get("found", {}),
            note=data.get("note", ""),
            path=Path(path),
        )

    def build_spec(self) -> DeploymentSpec:
        """The deployment spec this entry replays."""
        return DeploymentSpec.from_dict(self.spec)

    def payload(self) -> dict:
        return {
            "format": CORPUS_FORMAT,
            "id": self.entry_id,
            "spec": self.spec,
            "expect": self.expect,
            "found": self.found,
            "note": self.note,
        }


class Corpus:
    """A directory of corpus entries (one JSON file each)."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # ---------------------------------------------------------------- reading
    def entries(self) -> List[CorpusEntry]:
        """Every entry, sorted by file name (stable collection order)."""
        if not self.root.is_dir():
            return []
        return [
            CorpusEntry.load(path) for path in sorted(self.root.glob("*.json"))
        ]

    # ---------------------------------------------------------------- writing
    def add(
        self,
        spec_dict: dict,
        *,
        expect: str,
        found: dict,
        note: str,
        slug: str,
    ) -> Path:
        """Persist one reproducer; returns the written path.

        Idempotent for identical content: the file name embeds a hash of
        (spec, expect), so re-adding the same reproducer overwrites the
        same file byte for byte instead of accumulating duplicates.
        """
        if expect not in ("clean", "violation"):
            raise ValueError(f"expect must be 'clean' or 'violation', got {expect!r}")
        entry_id = _content_id({"spec": spec_dict, "expect": expect})
        entry = CorpusEntry(
            entry_id=entry_id,
            spec=spec_dict,
            expect=expect,
            found=dict(found),
            note=note,
        )
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{slug}-{entry_id}.json"
        path.write_text(canonical_json(entry.payload()))
        entry.path = path
        return path


def replay_entry(entry: CorpusEntry) -> Tuple[List[InvariantReport], List[InvariantReport]]:
    """Replay one corpus entry; returns (all reports, failing reports).

    The caller asserts the direction: for ``expect == "clean"`` the
    failing list must be empty; for ``expect == "violation"`` it must not
    (and should still contain the recorded (protocol, invariant) pairs).
    A run that crashes replays as its one failing report, exactly as the
    detector recorded it (:func:`~repro.testkit.invariants.judge_reports`).
    """
    reports = judge_reports(entry.build_spec(), label=f"corpus:{entry.entry_id}")
    return reports, [report for report in reports if not report.ok]
