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
and collisions are self-evident.  :meth:`CorpusEntry.load` refuses a
malformed field with a :class:`~repro.net.impairment.SpecError`.
``tests/corpus/`` holds the committed corpus; its pytest collector
replays every entry on every CI run as ``judge("corpus:<id>",
entry.build_spec(), SessionBuilder)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.crypto.hashing import sha256
from repro.session.spec import DeploymentSpec
from repro.net.impairment import SpecError, read_json

#: Corpus entry schema version (bump on incompatible changes).
CORPUS_FORMAT = 1


def canonical_json(payload: object) -> str:
    """The one JSON encoding used for hashing and on-disk entries."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _content_id(payload: dict) -> str:
    digest = sha256(
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
        entry_id = _content_id({"spec": data["spec"], "expect": expect})
        found, note = data.get("found", {}), data.get("note", "")
        failures = found.get("failures", []) if isinstance(found, dict) else []
        pairs = isinstance(failures, list) and all(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)
            for pair in failures
        )
        for name, ok, value, wanted in (
            ("id", data["id"] == entry_id, data["id"], f"the content hash {entry_id!r}"),
            ("found", isinstance(found, dict), found, "an object"),
            ("found.failures", pairs, failures, "[protocol, invariant] pairs"),
            ("note", isinstance(note, str), note, "a string"),
        ):
            if not ok:
                raise SpecError(f"{name}: expected {wanted}, got {value!r}", str(path))
        return cls(
            entry_id=entry_id,
            spec=data["spec"],
            expect=expect,
            found=found,
            note=note,
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
