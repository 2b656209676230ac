"""Protocol configuration shared by EESMR and the baseline protocols."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.core.types import FIRST_VIEW, NodeId, View
from repro.net.impairment import SpecError


@dataclass
class ProtocolConfig:
    """Static configuration of a protocol deployment.

    Attributes:
        n: Total number of nodes.
        f: Maximum number of Byzantine nodes tolerated (f < n/2).
        delta: The synchrony bound Δ — the public upper bound on message
            delivery time between correct nodes (after flooding).
        signature_scheme: Name of the signature scheme to use (see
            :func:`repro.crypto.available_schemes`); the paper recommends
            RSA-1024 for its cheap verification.
        batch_size: Number of client commands per block.
        command_payload_bytes: Size of each synthetic command payload (the
            paper's |b_i|, e.g. 16 B / 128 B / 256 B in Fig. 2d).
        target_height: Leaders stop proposing once their chain reaches this
            height; this is the number of consensus units per experiment.
        block_interval: Virtual time the leader waits between successive
            proposals.  EESMR's block period is 0 in theory; a non-zero
            interval is used when an experiment needs earlier blocks to
            commit before a fault is injected.
        txpool_limit: Bound on each replica's pending-command pool.
            ``None`` (the default, and the seed behaviour) is unbounded;
            a bounded pool drops overflow arrivals with an explicit
            admission verdict (see :mod:`repro.core.txpool`).
    """

    n: int
    f: int
    delta: float
    signature_scheme: str = "rsa-1024"
    batch_size: int = 1
    command_payload_bytes: int = 16
    target_height: int = 5
    block_interval: float = 0.0
    txpool_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.f < 0:
            raise ValueError("f cannot be negative")
        if 2 * self.f >= self.n:
            raise SpecError(
                f"the synchronous model requires f < n/2 (got n={self.n}, f={self.f})", "f"
            )
        if self.delta <= 0:
            raise SpecError(f"delta must be positive, got {self.delta}", "delta")
        if self.target_height < 1:
            raise ValueError("target_height must be at least 1")
        if self.txpool_limit is not None and self.txpool_limit < 1:
            raise ValueError("txpool_limit must be at least 1 (or None for unbounded)")

    @cached_property
    def quorum(self) -> int:
        """Size of a quorum certificate: f + 1 signatures (read per delivery, so cached)."""
        return self.f + 1

    def leader_of(self, view: View) -> NodeId:
        """The leader of a given view: round-robin over the n nodes."""
        return (view - FIRST_VIEW) % self.n


@dataclass
class RunStats:
    """Per-replica protocol statistics collected during a run."""

    proposals_made: int = 0
    proposals_received: int = 0
    blocks_committed: int = 0
    blames_sent: int = 0
    equivocations_detected: int = 0
    view_changes_completed: int = 0
    votes_sent: int = 0
    certificates_formed: int = 0
