"""The built-in detlint rules."""

from repro.analysis.checkers.ordering import OrderedIterationChecker
from repro.analysis.checkers.randomness import UnseededRandomnessChecker
from repro.analysis.checkers.rng_discipline import RngStreamDisciplineChecker
from repro.analysis.checkers.wallclock import WallClockChecker

#: Every rule detlint runs, in rule-name order (the order findings are
#: gathered and ``--list-rules`` prints).
RULES = (
    UnseededRandomnessChecker,
    WallClockChecker,
    OrderedIterationChecker,
    RngStreamDisciplineChecker,
)
