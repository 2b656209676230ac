"""Core SMR data structures and protocol implementations."""

from repro.core.types import Command, Batch, NodeId, View, Round, FIRST_STEADY_ROUND, FIRST_VIEW
from repro.core.blocks import Block, BlockStore, GENESIS, make_block, make_genesis
from repro.core.messages import (
    MessageType,
    ProtocolMessage,
    QuorumCertificate,
    PayloadRecord,
    CertifiedBlock,
    NewViewProposal,
    Round2Proposal,
    SyncRequest,
    SyncResponse,
    ClientRequest,
    EquivocationProof,
    make_message,
    verify_message,
    make_qc,
    verify_qc,
    make_view_qc,
    verify_view_qc,
)
from repro.core.txpool import TxPool
from repro.core.ledger import CommittedLog, SafetyChecker, SafetyReport, SafetyViolation
from repro.core.client import Client, CommandFactory, AckRouter, Acknowledgement
from repro.core.config import ProtocolConfig, RunStats
from repro.core.replica_base import BaseReplica
from repro.core.eesmr import EesmrReplica
from repro.core.baselines import (
    SyncHotStuffReplica,
    OptSyncReplica,
    TrustedBaselineReplica,
    TrustedControlNode,
)
from repro.core.adversary import (
    FaultPlan,
    CrashReplica,
    SilentLeaderReplica,
    EquivocatingLeaderReplica,
    SilentReplica,
    replica_class_for,
)

__all__ = [
    "Command",
    "Batch",
    "NodeId",
    "View",
    "Round",
    "FIRST_STEADY_ROUND",
    "FIRST_VIEW",
    "Block",
    "BlockStore",
    "GENESIS",
    "make_block",
    "make_genesis",
    "MessageType",
    "ProtocolMessage",
    "QuorumCertificate",
    "PayloadRecord",
    "CertifiedBlock",
    "NewViewProposal",
    "Round2Proposal",
    "SyncRequest",
    "SyncResponse",
    "ClientRequest",
    "EquivocationProof",
    "make_message",
    "verify_message",
    "make_qc",
    "verify_qc",
    "make_view_qc",
    "verify_view_qc",
    "TxPool",
    "CommittedLog",
    "SafetyChecker",
    "SafetyReport",
    "SafetyViolation",
    "Client",
    "CommandFactory",
    "AckRouter",
    "Acknowledgement",
    "ProtocolConfig",
    "RunStats",
    "BaseReplica",
    "EesmrReplica",
    "SyncHotStuffReplica",
    "OptSyncReplica",
    "TrustedBaselineReplica",
    "TrustedControlNode",
    "FaultPlan",
    "CrashReplica",
    "SilentLeaderReplica",
    "EquivocatingLeaderReplica",
    "SilentReplica",
    "replica_class_for",
]
