"""Radio / communication-medium energy models.

This package reproduces the measurement layer of the paper's CPS test bed:

* Table 1 per-message energies for BLE, 4G LTE and WiFi
  (:mod:`repro.radio.media`);
* the BLE advertisement k-cast model with fragmentation, redundancy and the
  reliability-vs-energy trade-off of Fig. 2a (:mod:`repro.radio.ble`,
  :mod:`repro.radio.reliability`);
* the connection-based GATT unicast alternative of Fig. 2b
  (:mod:`repro.radio.gatt`).
"""

from repro.radio.media import (
    MediaEnergyRow,
    TABLE1_MEDIA_ENERGY_MJ,
    MediumEnergyModel,
    TabulatedMediumModel,
    wifi_medium,
    lte_medium,
    ble_link_medium,
    make_medium,
)
from repro.radio.reliability import (
    AdvertisementLossModel,
    ReliabilityPoint,
    DEFAULT_ADVERTISEMENT_LOSS,
    FOUR_NINES,
)
from repro.radio.ble import (
    BleAdvertisementKCast,
    KCastTransmissionCost,
    BLE_ADVERTISEMENT_PAYLOAD_BYTES,
    fragments_for_payload,
)
from repro.radio.gatt import BleGattUnicast, UnicastTransmissionCost

__all__ = [
    "MediaEnergyRow",
    "TABLE1_MEDIA_ENERGY_MJ",
    "MediumEnergyModel",
    "TabulatedMediumModel",
    "wifi_medium",
    "lte_medium",
    "ble_link_medium",
    "make_medium",
    "AdvertisementLossModel",
    "ReliabilityPoint",
    "DEFAULT_ADVERTISEMENT_LOSS",
    "FOUR_NINES",
    "BleAdvertisementKCast",
    "KCastTransmissionCost",
    "BLE_ADVERTISEMENT_PAYLOAD_BYTES",
    "fragments_for_payload",
    "BleGattUnicast",
    "UnicastTransmissionCost",
]
