"""Communication-medium energy models (Table 1 of the paper).

The paper measures the energy to send and receive messages of various sizes
over BLE, 4G LTE and WiFi (Table 1).  Those measurements are reproduced
here as :data:`TABLE1_MEDIA_ENERGY_MJ` and wrapped in medium models that
can price arbitrary message sizes by linear interpolation/extrapolation of
the measured rows.

Units: the table stores milliJoules (as the paper does); the model API
returns Joules, because the energy meters account in Joules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass(frozen=True)
class MediaEnergyRow:
    """One row of Table 1: energy (mJ) per message of a given size."""

    message_size_bytes: int
    ble_send_mj: float
    ble_recv_mj: float
    ble_multicast_mj: float
    lte_send_mj: float
    lte_recv_mj: float
    wifi_send_mj: float
    wifi_recv_mj: float


#: Table 1 of the paper, verbatim (sizes in bytes, energies in mJ).
TABLE1_MEDIA_ENERGY_MJ: tuple[MediaEnergyRow, ...] = (
    MediaEnergyRow(256, 0.73, 0.55, 0.58, 494.84, 69.54, 81.20, 66.66),
    MediaEnergyRow(512, 1.31, 1.11, 1.17, 989.68, 139.08, 153.98, 123.23),
    MediaEnergyRow(1024, 2.93, 2.64, 2.35, 1979.36, 278.17, 310.54, 231.52),
    MediaEnergyRow(2048, 5.91, 5.23, 4.70, 3958.72, 556.35, 610.55, 423.58),
)


class MediumEnergyModel:
    """Abstract energy model for one communication medium."""

    name: str = "medium"

    def send_energy_j(self, size_bytes: int) -> float:
        """Energy (J) to transmit a message of ``size_bytes``."""
        raise NotImplementedError

    def recv_energy_j(self, size_bytes: int) -> float:
        """Energy (J) to receive a message of ``size_bytes``."""
        raise NotImplementedError


class TabulatedMediumModel(MediumEnergyModel):
    """A medium priced by interpolating a (size -> mJ) table.

    Sizes between two measured points are linearly interpolated; sizes above
    the largest measured point are extrapolated with the last segment's
    slope; sizes below the smallest point are scaled proportionally (the
    measured rows are close to proportional in size already).
    """

    def __init__(self, name: str, send_table_mj: Dict[int, float], recv_table_mj: Dict[int, float]) -> None:
        if not send_table_mj or not recv_table_mj:
            raise ValueError("tables must be non-empty")
        self.name = name
        self._send = sorted(send_table_mj.items())
        self._recv = sorted(recv_table_mj.items())

    @staticmethod
    def _interp(table: Sequence[tuple[int, float]], size_bytes: int) -> float:
        sizes = [s for s, _ in table]
        values = [v for _, v in table]
        if size_bytes <= sizes[0]:
            return values[0] * (size_bytes / sizes[0])
        if size_bytes >= sizes[-1]:
            if len(sizes) == 1:
                return values[-1] * (size_bytes / sizes[-1])
            slope = (values[-1] - values[-2]) / (sizes[-1] - sizes[-2])
            return values[-1] + slope * (size_bytes - sizes[-1])
        for (s0, v0), (s1, v1) in zip(table, table[1:]):
            if s0 <= size_bytes <= s1:
                fraction = (size_bytes - s0) / (s1 - s0)
                return v0 + fraction * (v1 - v0)
        return values[-1]

    def send_energy_j(self, size_bytes: int) -> float:
        _check_size(size_bytes)
        return self._interp(self._send, size_bytes) / 1000.0

    def recv_energy_j(self, size_bytes: int) -> float:
        _check_size(size_bytes)
        return self._interp(self._recv, size_bytes) / 1000.0


def _check_size(size_bytes: int) -> None:
    if size_bytes < 0:
        raise ValueError(f"message size cannot be negative: {size_bytes}")


def _column(rows: tuple[MediaEnergyRow, ...], attr: str) -> Dict[int, float]:
    return {row.message_size_bytes: getattr(row, attr) for row in rows}


def wifi_medium() -> TabulatedMediumModel:
    """WiFi energy model from Table 1."""
    return TabulatedMediumModel(
        "wifi",
        _column(TABLE1_MEDIA_ENERGY_MJ, "wifi_send_mj"),
        _column(TABLE1_MEDIA_ENERGY_MJ, "wifi_recv_mj"),
    )


def lte_medium() -> TabulatedMediumModel:
    """4G LTE energy model from Table 1 (the "expensive" trusted-node medium)."""
    return TabulatedMediumModel(
        "4g-lte",
        _column(TABLE1_MEDIA_ENERGY_MJ, "lte_send_mj"),
        _column(TABLE1_MEDIA_ENERGY_MJ, "lte_recv_mj"),
    )


def ble_link_medium() -> TabulatedMediumModel:
    """Raw BLE link-layer energy model from Table 1.

    These are the paper's link-layer packet costs and do not include the
    redundancy needed for reliable advertisement k-casts; use
    :class:`repro.radio.ble.BleAdvertisementKCast` for the reliable
    multicast model and :class:`repro.radio.gatt.BleGattUnicast` for the
    reliable connection-based unicast model.
    """
    return TabulatedMediumModel(
        "ble-link",
        _column(TABLE1_MEDIA_ENERGY_MJ, "ble_send_mj"),
        _column(TABLE1_MEDIA_ENERGY_MJ, "ble_recv_mj"),
    )


#: Duration (s) the adapters below charge for one transfer over a Table 1 medium.
LINK_TIME_S = 0.1


class MediumUnicastAdapter:
    """Adapts a :class:`MediumEnergyModel` to the unicast-radio interface.

    The simulated network prices point-to-point sends through an object
    exposing ``transmission_cost(size)``; this adapter lets any Table 1
    medium (e.g. 4G LTE for the trusted-baseline protocol) play that role.
    """

    def __init__(self, medium: MediumEnergyModel) -> None:
        from repro.radio.gatt import UnicastTransmissionCost

        self._cost_type = UnicastTransmissionCost
        self.medium = medium
        self.name = f"{medium.name}-unicast"

    def transmission_cost(self, payload_bytes: int):
        """Energy and time of one unicast transfer over the wrapped medium."""
        return self._cost_type(
            payload_bytes=payload_bytes,
            sender_energy_j=self.medium.send_energy_j(payload_bytes),
            receiver_energy_j=self.medium.recv_energy_j(payload_bytes),
            duration_s=LINK_TIME_S,
        )


class MediumKCastAdapter:
    """Adapts a :class:`MediumEnergyModel` to the k-cast radio interface.

    The simulated network prices hyper-edge transmissions through an object
    exposing ``transmission_cost(size, k)``.  WiFi and LTE are broadcast
    media at the link layer: one transmission reaches all ``k`` receivers,
    each of which pays its receive cost.  This adapter lets the scenario
    matrix run every protocol over every Table 1 medium, not just the BLE
    advertisement k-cast of the paper's test bed.
    """

    def __init__(self, medium: MediumEnergyModel) -> None:
        from repro.radio.ble import KCastTransmissionCost

        self._cost_type = KCastTransmissionCost
        self.medium = medium
        self.name = f"{medium.name}-kcast"

    def transmission_cost(self, payload_bytes: int, k: int):
        """Energy and time of one k-cast transfer over the wrapped medium."""
        if k < 1:
            raise ValueError("k must be at least 1")
        return self._cost_type(
            payload_bytes=payload_bytes,
            k=k,
            fragments=1,
            redundancy=1,
            reliability=1.0,
            sender_energy_j=self.medium.send_energy_j(payload_bytes),
            per_receiver_energy_j=self.medium.recv_energy_j(payload_bytes),
            duration_s=LINK_TIME_S,
        )


#: Registry used by configuration code ("give me the medium called X").
MEDIUM_FACTORIES = {
    "wifi": wifi_medium,
    "4g-lte": lte_medium,
    "ble-link": ble_link_medium,
}


def make_medium(name: str) -> MediumEnergyModel:
    """Instantiate a medium model by name."""
    key = name.lower()
    if key not in MEDIUM_FACTORIES:
        known = ", ".join(sorted(MEDIUM_FACTORIES))
        raise KeyError(f"unknown medium {name!r}; known: {known}")
    return MEDIUM_FACTORIES[key]()
