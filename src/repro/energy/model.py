"""The paper's per-consensus energy cost framework (Section 4).

A protocol's energy per consensus unit is modelled as a function psi(X) of
the system parameter vector

    X = (n, f, m, S, R, sigma_s, sigma_v)

where ``n`` is the number of nodes, ``f`` the fault bound, ``m`` the
payload size, ``S``/``R`` the per-byte send/receive costs of the medium,
and ``sigma_s``/``sigma_v`` the signing/verification energies.  The paper's
example is a linear combination of monomials such as ``c4 * m * n * S``.
A run's meters are that linear family evaluated on measured operation
counts: :func:`repro.energy.meter.price` sums count × unit cost per
category.  :class:`CostFunction` wraps the closed-form psi(X) of each
protocol (:mod:`repro.energy.protocol_costs`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable

from repro.crypto.energy_costs import SignatureEnergyCost, signature_cost
from repro.radio.media import MediumEnergyModel


@dataclass(frozen=True)
class CostParameters:
    """The parameter vector X of Section 4 (all energies in Joules)."""

    n: int
    f: int
    message_bytes: int
    send_per_byte_j: float
    recv_per_byte_j: float
    sign_j: float
    verify_j: float
    #: Per-message fixed radio overhead (connection setup, preamble, ...).
    send_base_j: float = 0.0
    recv_base_j: float = 0.0
    #: Costs of the *external* medium used to reach a trusted control node
    #: (the baseline protocol); default to the local medium when unset.
    ext_send_per_byte_j: float | None = None
    ext_recv_per_byte_j: float | None = None
    ext_send_base_j: float = 0.0
    ext_recv_base_j: float = 0.0
    #: Size of a signature / certificate entry on the wire (bytes).
    signature_bytes: int = 128
    #: k-cast degree (receivers reached by one transmission).
    k: int = 1
    #: Number of neighbours a node forwards to in a partially connected graph.
    d: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.f < self.n:
            raise ValueError("f must satisfy 0 <= f < n")
        if self.message_bytes < 0:
            raise ValueError("message size cannot be negative")

    # ------------------------------------------------------------- helpers
    def send_cost(self, size_bytes: float) -> float:
        """Energy to transmit ``size_bytes`` once on the local medium."""
        return self.send_base_j + self.send_per_byte_j * size_bytes

    def recv_cost(self, size_bytes: float) -> float:
        """Energy to receive ``size_bytes`` once on the local medium."""
        return self.recv_base_j + self.recv_per_byte_j * size_bytes

    def ext_send_cost(self, size_bytes: float) -> float:
        """Energy to transmit ``size_bytes`` once on the external medium."""
        per_byte = self.ext_send_per_byte_j if self.ext_send_per_byte_j is not None else self.send_per_byte_j
        return self.ext_send_base_j + per_byte * size_bytes

    def ext_recv_cost(self, size_bytes: float) -> float:
        """Energy to receive ``size_bytes`` once on the external medium."""
        per_byte = self.ext_recv_per_byte_j if self.ext_recv_per_byte_j is not None else self.recv_per_byte_j
        return self.ext_recv_base_j + per_byte * size_bytes

    def with_message_bytes(self, message_bytes: int) -> "CostParameters":
        """A copy with a different payload size (used in parameter sweeps)."""
        return replace(self, message_bytes=message_bytes)

    def with_n(self, n: int, f: int | None = None) -> "CostParameters":
        """A copy with a different system size."""
        return replace(self, n=n, f=f if f is not None else min(self.f, n - 1))


def parameters_from_components(
    n: int,
    f: int,
    message_bytes: int,
    medium: MediumEnergyModel,
    signature: SignatureEnergyCost | str,
    external_medium: MediumEnergyModel | None = None,
    k: int = 1,
    d: int = 1,
    reference_bytes: int = 1024,
) -> CostParameters:
    """Build :class:`CostParameters` from a medium model and a signature scheme.

    Per-byte medium costs are extracted from the medium model by a secant
    over ``[0, reference_bytes]``, which matches how the paper linearises
    its measured Table 1 rows.
    """
    sig = signature if isinstance(signature, SignatureEnergyCost) else signature_cost(signature)
    send_base = medium.send_energy_j(0)
    recv_base = medium.recv_energy_j(0)
    send_slope = (medium.send_energy_j(reference_bytes) - send_base) / reference_bytes
    recv_slope = (medium.recv_energy_j(reference_bytes) - recv_base) / reference_bytes
    ext_send_slope = None
    ext_recv_slope = None
    ext_send_base = 0.0
    ext_recv_base = 0.0
    if external_medium is not None:
        ext_send_base = external_medium.send_energy_j(0)
        ext_recv_base = external_medium.recv_energy_j(0)
        ext_send_slope = (
            external_medium.send_energy_j(reference_bytes) - ext_send_base
        ) / reference_bytes
        ext_recv_slope = (
            external_medium.recv_energy_j(reference_bytes) - ext_recv_base
        ) / reference_bytes
    return CostParameters(
        n=n,
        f=f,
        message_bytes=message_bytes,
        send_per_byte_j=send_slope,
        recv_per_byte_j=recv_slope,
        send_base_j=send_base,
        recv_base_j=recv_base,
        sign_j=sig.sign_joules,
        verify_j=sig.verify_joules,
        ext_send_per_byte_j=ext_send_slope,
        ext_recv_per_byte_j=ext_recv_slope,
        ext_send_base_j=ext_send_base,
        ext_recv_base_j=ext_recv_base,
        signature_bytes=sig.signature_size_bytes,
        k=k,
        d=d,
    )


class CostFunction:
    """A named psi(X) function."""

    def __init__(self, name: str, fn: Callable[[CostParameters], float]) -> None:
        self.name = name
        self._fn = fn

    def __call__(self, params: CostParameters) -> float:
        value = self._fn(params)
        if value < 0 and abs(value) < 1e-12:
            return 0.0
        return value

    def sweep(self, params: CostParameters, sizes: Iterable[int]) -> Dict[int, float]:
        """Evaluate the function over a range of payload sizes."""
        return {size: self(params.with_message_bytes(size)) for size in sizes}
