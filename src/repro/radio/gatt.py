"""BLE GATT unicast model.

The alternative to advertisement k-casts that the paper evaluates in
Fig. 2b: connection-based GATT transfers.  GATT handles packet loss and
retransmission at the link layer, so no application-level redundancy is
needed, but each transfer pays a per-connection overhead and the sender
must repeat the transfer once per neighbour (``d_out`` unicasts replace one
k-cast).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Energy to establish/maintain one GATT connection for one transfer (mJ).
GATT_CONNECTION_OVERHEAD_MJ = 2.5

#: Marginal energy per payload byte transferred over GATT, sender side (mJ).
GATT_TX_ENERGY_PER_BYTE_MJ = 0.022

#: Marginal energy per payload byte transferred over GATT, receiver side (mJ).
GATT_RX_ENERGY_PER_BYTE_MJ = 0.020


@dataclass(frozen=True)
class UnicastTransmissionCost:
    """Cost of delivering one payload to one neighbour over GATT."""

    payload_bytes: int
    sender_energy_j: float
    receiver_energy_j: float


class BleGattUnicast:
    """Reliable, connection-based BLE unicast at the calibrated costs above."""

    name = "ble-gatt-unicast"

    def transmission_cost(self, payload_bytes: int) -> UnicastTransmissionCost:
        """Energy for one unicast transfer of ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        sender_mj = GATT_CONNECTION_OVERHEAD_MJ + GATT_TX_ENERGY_PER_BYTE_MJ * payload_bytes
        receiver_mj = GATT_CONNECTION_OVERHEAD_MJ + GATT_RX_ENERGY_PER_BYTE_MJ * payload_bytes
        return UnicastTransmissionCost(
            payload_bytes=payload_bytes,
            sender_energy_j=sender_mj / 1000.0,
            receiver_energy_j=receiver_mj / 1000.0,
        )

    def send_energy_j(self, size_bytes: int) -> float:
        """Sender energy (J) for one unicast transfer."""
        return self.transmission_cost(size_bytes).sender_energy_j

    def fanout_send_energy_j(self, size_bytes: int, d_out: int) -> float:
        """Sender energy (J) to emulate a k-cast with ``d_out`` serial unicasts."""
        if d_out < 0:
            raise ValueError("d_out cannot be negative")
        return d_out * self.send_energy_j(size_bytes)
