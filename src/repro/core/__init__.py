"""Core SMR data structures and protocol implementations."""

from repro.core.types import Command, Round
from repro.core.messages import (
    MessageType,
    QuorumCertificate,
    verify_qc,
    verify_view_qc,
)
from repro.core.ledger import SafetyChecker, SafetyReport, SafetyViolation
from repro.core.config import ProtocolConfig
from repro.core.eesmr import EesmrReplica
from repro.core.baselines import (
    SyncHotStuffReplica,
    OptSyncReplica,
    TrustedBaselineReplica,
    TrustedControlNode,
)
from repro.core.adversary import FaultPlan

__all__ = [
    "Command",
    "Round",
    "MessageType",
    "QuorumCertificate",
    "verify_qc",
    "verify_view_qc",
    "SafetyChecker",
    "SafetyReport",
    "SafetyViolation",
    "ProtocolConfig",
    "EesmrReplica",
    "SyncHotStuffReplica",
    "OptSyncReplica",
    "TrustedBaselineReplica",
    "TrustedControlNode",
    "FaultPlan",
]
