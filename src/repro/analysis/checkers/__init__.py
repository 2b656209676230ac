"""Built-in detlint checkers (importing this package registers them)."""

from repro.analysis.checkers import (  # noqa: F401
    ordering,
    randomness,
    rng_discipline,
    wallclock,
)
