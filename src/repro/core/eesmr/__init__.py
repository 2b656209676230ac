"""The EESMR protocol (the paper's primary contribution)."""

from repro.core.eesmr.replica import EesmrReplica

__all__ = ["EesmrReplica"]
