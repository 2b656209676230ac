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
    TABLE1_MEDIA_ENERGY_MJ,
    MediumEnergyModel,
    wifi_medium,
    lte_medium,
    make_medium,
)
from repro.radio.reliability import (
    AdvertisementLossModel,
    ReliabilityPoint,
)
from repro.radio.ble import BleAdvertisementKCast
from repro.radio.gatt import BleGattUnicast

__all__ = [
    "TABLE1_MEDIA_ENERGY_MJ",
    "MediumEnergyModel",
    "wifi_medium",
    "lte_medium",
    "make_medium",
    "AdvertisementLossModel",
    "ReliabilityPoint",
    "BleAdvertisementKCast",
    "BleGattUnicast",
]
