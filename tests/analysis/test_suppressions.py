"""The suppression grammar: parsing, targeting, and the meta-rules."""

from __future__ import annotations

import textwrap

from repro.analysis.suppressions import parse_suppressions


def test_trailing_suppression_covers_its_own_line() -> None:
    sheet = parse_suppressions(
        "x = compute()  # detlint: ok ordered-iteration — order feeds a set\n"
    )
    (sup,) = sheet.suppressions
    assert sup.line == 1
    assert sup.target_line == 1
    assert sup.rules == ("ordered-iteration",)
    assert sup.reason == "order feeds a set"


def test_standalone_suppression_covers_the_next_line() -> None:
    source = textwrap.dedent(
        """\
        def f():
            # detlint: ok rng-stream-discipline — test-only fallback stream
            return SeededRNG(0)
        """
    )
    (sup,) = parse_suppressions(source).suppressions
    assert sup.line == 2
    assert sup.target_line == 3


def test_multiple_rules_and_ascii_dash() -> None:
    sheet = parse_suppressions(
        "y = f()  # detlint: ok no-wall-clock, ordered-iteration -- both benign here\n"
    )
    (sup,) = sheet.suppressions
    assert sup.rules == ("no-wall-clock", "ordered-iteration")
    assert sup.covers(1, "no-wall-clock")
    assert sup.covers(1, "ordered-iteration")
    assert not sup.covers(1, "rng-stream-discipline")


def test_star_covers_every_rule() -> None:
    (sup,) = parse_suppressions("z = g()  # detlint: ok * — generated code\n").suppressions
    assert sup.covers(1, "anything-at-all")


def test_missing_reason_is_malformed() -> None:
    sheet = parse_suppressions("x = f()  # detlint: ok ordered-iteration\n")
    assert sheet.suppressions == []
    (line, message) = sheet.malformed[0]
    assert line == 1
    assert "reason is mandatory" in message


def test_unknown_marker_form_is_malformed() -> None:
    sheet = parse_suppressions("x = f()  # detlint: disable=foo\n")
    assert sheet.suppressions == []
    assert len(sheet.malformed) == 1


def test_grammar_inside_strings_and_docstrings_is_ignored() -> None:
    source = textwrap.dedent(
        '''\
        """Docs quoting the grammar: # detlint: ok rule — reason."""

        EXAMPLE = "# detlint: bad marker inside a string"
        '''
    )
    sheet = parse_suppressions(source)
    assert sheet.suppressions == []
    assert sheet.malformed == []


def test_module_override_comment_is_not_a_suppression() -> None:
    sheet = parse_suppressions("# detlint-module: repro.energy.fixture\n")
    assert sheet.suppressions == []
    assert sheet.malformed == []


def test_match_marks_used_and_unused_reports_the_rest() -> None:
    source = (
        "a = f()  # detlint: ok no-wall-clock — measured, never stored\n"
        "b = g()  # detlint: ok ordered-iteration — membership only\n"
    )
    sheet = parse_suppressions(source)
    assert sheet.match(1, "no-wall-clock") is not None
    assert sheet.match(1, "ordered-iteration") is None  # wrong rule for line 1
    unused = sheet.unused()
    assert [s.line for s in unused] == [2]


def test_untokenizable_source_yields_no_suppressions() -> None:
    # The unterminated triple-quote swallows the marker and then raises
    # TokenError at EOF; the sheet must come back empty, not explode.
    sheet = parse_suppressions("'''unterminated\n# detlint: ok x — y\n")
    assert sheet.suppressions == []
    assert sheet.malformed == []
