"""The trusted-control-node baseline protocol (Section 5.1 of the paper).

The baseline assumes an online trusted node (a control server, base
station or satellite uplink) that every CPS node can reach over a more
expensive medium (the paper's example: 4G, while the CPS nodes could talk
to each other over WiFi or BLE).  Per consensus unit:

* every CPS node uploads its pending commands to the trusted node;
* the trusted node orders them into a block (one copy of each command:
  every node uploads the same pool head), signs it once, and sends the
  signed block back to every CPS node;
* each CPS node verifies the single signature and commits.

There is no inter-replica communication at all, so the protocol is
trivially safe and live given the trust assumption — its cost is entirely
the per-node up/down traffic on the expensive medium, which is what the
feasible-region analysis of Fig. 1 compares EESMR against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from repro.core.blocks import Block, make_block
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    ClientRequest,
    MessageType,
    ProtocolMessage,
    data_signing_input,
    make_message,
)
from repro.core.replica_base import BaseReplica
from repro.core.types import Command, NodeId
from repro.crypto.signatures import SignatureScheme
from repro.energy.meter import EnergyCategory, EnergyMeter
from repro.net.network import SimulatedNetwork
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


class TrustedControlNode(Process):
    """The trusted node: collects requests, orders them, signs, replies.

    Its own energy is *not* part of the comparison (it is assumed to be
    mains-powered); only the CPS replicas' meters matter.
    """

    def __init__(
        self,
        sim: Simulator,
        pid: NodeId,
        config: ProtocolConfig,
        scheme: SignatureScheme,
        network: SimulatedNetwork,
        round_interval: float,
    ) -> None:
        super().__init__(sim, pid, name=f"control{pid}")
        self.config = config
        self.scheme = scheme
        self.network = network
        self.round_interval = round_interval
        self.chain_tip: Block = None  # type: ignore[assignment]
        self.pending: List[Command] = []
        self.replica_ids: List[NodeId] = []
        self.blocks_ordered = 0
        # Every command id a leaf has uploaded so far, ordered or pending:
        # all n leaves upload the same pool head, and one copy is ordered.
        self._uploaded: Set[str] = set()
        # A leaf uploaded nothing since the last order: its pool is empty,
        # so an empty block is what there is to order.
        self._leaf_exhausted = False
        # An order round found nothing to order and is waiting for an upload.
        self._waiting = False

    def start(self) -> None:
        from repro.core.blocks import GENESIS

        self.chain_tip = GENESIS
        self.after(self.round_interval, self._order_round, label="tb:order")

    def on_message(self, sender: int, message: Any) -> None:
        if not isinstance(message, ProtocolMessage):
            return
        if message.msg_type != MessageType.TB_REQUEST:
            return
        request = message.data
        if not isinstance(request, ClientRequest):
            return
        if not request.commands:
            self._leaf_exhausted = True
        for command in request.commands:
            if command.command_id not in self._uploaded:
                self._uploaded.add(command.command_id)
                self.pending.append(command)
        if self._waiting:
            self._order_round()

    def _order_round(self) -> None:
        if self.crashed:
            return
        if self.blocks_ordered >= self.config.target_height:
            return
        # The order -> commit -> upload round trip can outlast the interval.
        # Rather than order an empty block while the leaves still hold
        # commands, wait: the next upload re-enters here, and orders if it
        # brought a new command or came empty.
        if not self.pending and not self._leaf_exhausted:
            self._waiting = True
            return
        self._waiting = False
        self._leaf_exhausted = False
        batch = self.pending[: self.config.batch_size]
        self.pending = self.pending[len(batch):]
        block = make_block(
            parent=self.chain_tip,
            proposer=self.pid,
            view=1,
            round_number=self.blocks_ordered + 1,
            commands=batch,
        )
        self.chain_tip = block
        self.blocks_ordered += 1
        order = make_message(
            self.scheme, self.pid, MessageType.TB_ORDER, 1, block, round_number=block.height
        )
        for replica_id in self.replica_ids:
            self.network.send(self.pid, replica_id, order)
        if self.blocks_ordered < self.config.target_height:
            self.after(self.round_interval, self._order_round, label="tb:order")


class TrustedBaselineReplica(BaseReplica):
    """A CPS node in the trusted-baseline protocol."""

    def __init__(
        self,
        sim: Simulator,
        pid: NodeId,
        config: ProtocolConfig,
        scheme: SignatureScheme,
        network: SimulatedNetwork,
        meter: EnergyMeter,
        control_node_id: NodeId,
    ) -> None:
        super().__init__(sim, pid, config, scheme, network, meter)
        self.control_node_id = control_node_id
        # Retransmission latency on a lossy wire can reorder TB_ORDERs;
        # dangling blocks wait here (keyed by parent hash) until their
        # ancestry arrives.  Empty for the whole run on a clean medium.
        self._pending_orders: Dict[str, Block] = {}

    def start(self) -> None:
        self._upload_pending()

    def _upload_pending(self) -> None:
        """Send pending commands to the trusted node over the expensive medium."""
        commands = self.txpool.peek_batch(self.config.batch_size)
        request = self.sign_message(MessageType.TB_REQUEST, ClientRequest(tuple(commands)), view=1)
        self.send(self.control_node_id, request)

    def on_message(self, sender: int, message: Any) -> None:
        if not isinstance(message, ProtocolMessage):
            return
        # Catch-up state transfer between leaves: the control node keeps no
        # per-leaf delivery state, so a leaf that missed TB_ORDERs (power
        # cycle, partition) recovers from its peers.  With no certificates
        # in this protocol, adoption needs f+1 matching peer responses.
        if message.msg_type == MessageType.SYNC_REQUEST:
            self._on_sync_request(message)
            return
        if message.msg_type == MessageType.SYNC_RESPONSE:
            self._on_sync_response(message)
            return
        if message.msg_type != MessageType.TB_ORDER or sender != self.control_node_id:
            return
        block = message.data
        if not isinstance(block, Block):
            return
        # One verification of the trusted node's signature per block.
        if message.data_sig is None:
            return
        self.meter.charge(EnergyCategory.VERIFY, self.scheme.verify_energy_j)
        signed = data_signing_input(message.data_digest, message.view)
        if not self.scheme.verify(self.pid, signed, message.data_sig):
            return
        self.store_block(block)
        if self.blocks.has_ancestry(block):
            self.commit_chain(block)
            self._commit_buffered_orders()
        else:
            self._pending_orders[block.parent_hash] = block
        # Upload the next batch for the following consensus round.
        if self.committed_height < self.config.target_height:
            self._upload_pending()

    def _commit_buffered_orders(self) -> None:
        """Commit any buffered TB_ORDERs the new tip just gave ancestry to."""
        while True:
            child = self._pending_orders.pop(self.b_com.block_hash, None)
            if child is None:
                return
            self.commit_chain(child)

    def describe(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "committed_height": self.committed_height,
            "blocks_committed": self.stats.blocks_committed,
        }
