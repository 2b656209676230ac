"""Per-line suppression comments for the determinism analyzer.

Grammar (one comment per line, trailing or standalone)::

    # detlint: ok <rule>[, <rule>...] — <reason>

* ``<rule>`` is a registered rule name, or ``*`` to cover every rule;
* the reason is mandatory — a suppression that does not say *why* the
  contract may be relaxed here is itself reported (``bad-suppression``);
* a trailing comment covers findings on its own line; a standalone
  comment line covers the line below it (for statements that do not fit
  a trailing comment);
* ``--`` is accepted in place of the em dash.

Suppressions are tracked: one that matches no finding is reported as
``unused-suppression``.  Every run runs every rule, so this keeps the
suppression inventory honest as findings get fixed for real.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

#: Meta-rules emitted by the suppression machinery itself.
BAD_SUPPRESSION = "bad-suppression"
UNUSED_SUPPRESSION = "unused-suppression"

_MARKER = re.compile(r"#\s*detlint\s*:")
_GRAMMAR = re.compile(
    r"#\s*detlint\s*:\s*ok\s+"
    r"(?P<rules>(?:[\w*-]+)(?:\s*,\s*[\w*-]+)*)"
    r"\s*(?:—|--)\s*"
    r"(?P<reason>\S.*?)\s*$"
)


@dataclass
class Suppression:
    """One parsed ``detlint: ok`` comment."""

    line: int
    #: The line whose findings this suppression covers (the comment's own
    #: line for trailing comments, the next line for standalone ones).
    target_line: int
    rules: Tuple[str, ...]
    reason: str
    used: bool = field(default=False, compare=False)

    def covers(self, line: int, rule: str) -> bool:
        return line == self.target_line and ("*" in self.rules or rule in self.rules)


@dataclass
class SuppressionSheet:
    """Every suppression (and malformed marker) in one file."""

    suppressions: List[Suppression]
    #: (line, message) pairs for markers that failed to parse.
    malformed: List[Tuple[int, str]]

    def match(self, line: int, rule: str) -> Optional[Suppression]:
        """The first suppression covering ``(line, rule)``, marking it used."""
        for suppression in self.suppressions:
            if suppression.covers(line, rule):
                suppression.used = True
                return suppression
        return None

    def unused(self) -> List[Suppression]:
        return [s for s in self.suppressions if not s.used]


def _comments(source: str) -> Iterator[Tuple[int, int, str]]:
    """Yield ``(line, column, text)`` for every comment token in ``source``.

    Tokenizing (rather than scanning raw lines) keeps the grammar out of
    docstrings and string literals — only real comments can suppress.
    Token errors fall back to yielding nothing; an unparsable file fails
    at AST time with a much better message.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError):
        return


def parse_suppressions(source: str) -> SuppressionSheet:
    """Extract every suppression comment from ``source``."""
    suppressions: List[Suppression] = []
    malformed: List[Tuple[int, str]] = []
    for line, column, text in _comments(source):
        if not _MARKER.search(text):
            continue
        match = _GRAMMAR.search(text)
        if match is None:
            malformed.append(
                (
                    line,
                    "malformed detlint suppression; expected "
                    "'# detlint: ok <rule>[, <rule>] — <reason>' "
                    "(the reason is mandatory)",
                )
            )
            continue
        rules = tuple(part.strip() for part in match.group("rules").split(","))
        standalone = column == 0 or not source.splitlines()[line - 1][:column].strip()
        suppressions.append(
            Suppression(
                line=line,
                target_line=line + 1 if standalone else line,
                rules=rules,
                reason=match.group("reason"),
            )
        )
    return SuppressionSheet(suppressions=suppressions, malformed=malformed)
