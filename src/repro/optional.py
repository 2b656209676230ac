"""Third-party packages that only some features need.

A deployment run — ``repro run``, a session, a scenario-matrix sweep —
executes on the standard library alone.  networkx (the graph export and
the large-n connectivity bound) and numpy (the Fig. 1 grid) are imported
by the function that needs them, through :func:`require`, so a missing
package surfaces as one typed error naming the feature instead of an
``ImportError`` from the middle of a package import.
"""

from __future__ import annotations

import importlib
from types import ModuleType


class MissingDependencyError(ImportError):
    """A feature was asked for whose third-party package is not installed."""


def require(package: str, feature: str) -> ModuleType:
    """Import ``package`` for ``feature``; raise :class:`MissingDependencyError` if absent."""
    try:
        return importlib.import_module(package)
    except ModuleNotFoundError as error:
        if error.name != package:
            raise
        raise MissingDependencyError(
            f"{feature} needs the '{package}' package, which is not installed"
        ) from error
