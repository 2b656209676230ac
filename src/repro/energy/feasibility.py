"""Feasible-region analysis (Fig. 1 of the paper).

Figure 1 plots, over a grid of message sizes ``m`` and system sizes ``n``,
the difference between EESMR's per-consensus energy (nodes talking to each
other over a cheap medium, e.g. WiFi) and the trusted-baseline protocol's
per-consensus energy (every node talking to a control server over an
expensive medium, e.g. 4G).  Wherever the difference is negative, EESMR is
the more energy-efficient choice.

:func:`feasible_region` reproduces that surface with numpy; the resulting
:class:`FeasibleRegion` exposes the raw grid plus the summaries the paper
draws from it (where the sign flips, what fraction of the grid favours
EESMR).  numpy is imported by :func:`feasible_region`, not by this module:
``repro.energy`` is on every run's import path and Fig. 1 is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.crypto.energy_costs import RSA_1024, SignatureEnergyCost
from repro.energy.model import parameters_from_components
from repro.energy.protocol_costs import (
    ProtocolCostModel,
    eesmr_cost_model,
    trusted_baseline_cost_model,
)
from repro.optional import require
from repro.radio.media import MediumEnergyModel, lte_medium, wifi_medium

if TYPE_CHECKING:
    import numpy as np


@dataclass
class FeasibleRegion:
    """The evaluated (m, n) grid of energy differences."""

    message_sizes: np.ndarray
    node_counts: np.ndarray
    #: difference[i, j] = psi_A(m_i, n_j) - psi_B(m_i, n_j); negative → A wins.
    difference: np.ndarray
    name_a: str
    name_b: str

    @property
    def favourable_mask(self) -> np.ndarray:
        """Boolean mask of grid points where protocol A is more efficient."""
        return self.difference < 0

    @property
    def favourable_fraction(self) -> float:
        """Fraction of grid points where protocol A is more efficient."""
        return float(self.favourable_mask.sum()) / self.difference.size

    def is_favourable(self, message_bytes: int, n: int) -> bool:
        """Whether protocol A wins at (or nearest to) the given point."""
        i = int(abs(self.message_sizes - message_bytes).argmin())
        j = int(abs(self.node_counts - n).argmin())
        return bool(self.difference[i, j] < 0)

    def crossover_n(self, message_bytes: int) -> Optional[int]:
        """For a fixed payload, the smallest n at which protocol A stops winning."""
        i = int(abs(self.message_sizes - message_bytes).argmin())
        row = self.difference[i, :]
        losing = (row >= 0).nonzero()[0]
        if losing.size == 0:
            return None
        return int(self.node_counts[losing[0]])

    def summary_rows(self) -> list[dict]:
        """One row per payload size: crossover n and min/max difference (for reports)."""
        rows = []
        for i, m in enumerate(self.message_sizes):
            rows.append(
                {
                    "message_bytes": int(m),
                    "crossover_n": self.crossover_n(int(m)),
                    "min_difference_j": float(self.difference[i].min()),
                    "max_difference_j": float(self.difference[i].max()),
                    "favourable_fraction": float((self.difference[i] < 0).mean()),
                }
            )
        return rows


def feasible_region(
    message_sizes: Sequence[int] = tuple(range(256, 8192 + 1, 256)),
    node_counts: Sequence[int] = tuple(range(4, 41, 2)),
    model_a: Optional[ProtocolCostModel] = None,
    model_b: Optional[ProtocolCostModel] = None,
    local_medium: Optional[MediumEnergyModel] = None,
    external_medium: Optional[MediumEnergyModel] = None,
    signature: SignatureEnergyCost = RSA_1024,
    k: Optional[int] = None,
    fault_fraction: float = 0.49,
) -> FeasibleRegion:
    """Evaluate psi_A - psi_B over an (m, n) grid.

    Defaults reproduce the paper's Fig. 1 scenario: EESMR (best case) over
    WiFi versus the trusted baseline over 4G, with RSA-1024 signatures.

    When ``k`` is ``None`` the local network is treated as fully connected
    WiFi (every node overhears every transmission, ``k = n - 1``), which is
    the regime where EESMR's quadratic receive cost eventually loses to the
    baseline's linear-but-expensive uplink — the crossover surface Fig. 1
    plots.
    """
    model_a = model_a or eesmr_cost_model()
    model_b = model_b or trusted_baseline_cost_model()
    local_medium = local_medium or wifi_medium()
    external_medium = external_medium or lte_medium()
    np = require("numpy", "feasible_region() (the Fig. 1 grid)")

    sizes = np.asarray(sorted(set(int(m) for m in message_sizes)), dtype=int)
    counts = np.asarray(sorted(set(int(n) for n in node_counts)), dtype=int)
    if sizes.size == 0 or counts.size == 0:
        raise ValueError("grid axes must be non-empty")

    difference = np.zeros((sizes.size, counts.size), dtype=float)
    for j, n in enumerate(counts):
        f = max(0, int(fault_fraction * n))
        if f >= n:
            f = n - 1
        point_k = k if k is not None else max(1, int(n) - 1)
        for i, m in enumerate(sizes):
            params = parameters_from_components(
                n=int(n),
                f=f,
                message_bytes=int(m),
                medium=local_medium,
                signature=signature,
                external_medium=external_medium,
                k=point_k,
                d=point_k,
            )
            difference[i, j] = model_a.best_case(params) - model_b.best_case(params)
    return FeasibleRegion(
        message_sizes=sizes,
        node_counts=counts,
        difference=difference,
        name_a=model_a.name,
        name_b=model_b.name,
    )
