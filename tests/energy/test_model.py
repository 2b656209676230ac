"""Unit tests for the Section 4 cost-parameter framework."""

import pytest

from repro.crypto.energy_costs import RSA_1024
from repro.energy.model import (
    CostFunction,
    CostParameters,
    parameters_from_components,
)
from repro.radio.media import lte_medium, wifi_medium


def make_params(**overrides):
    defaults = dict(
        n=10,
        f=4,
        message_bytes=256,
        send_per_byte_j=1e-4,
        recv_per_byte_j=5e-5,
        sign_j=0.4,
        verify_j=0.02,
        k=3,
        d=3,
    )
    defaults.update(overrides)
    return CostParameters(**defaults)


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_params(n=0)
    with pytest.raises(ValueError):
        make_params(f=10)
    with pytest.raises(ValueError):
        make_params(message_bytes=-1)


def test_send_and_recv_cost_linear_in_size():
    params = make_params(send_base_j=0.001)
    assert params.send_cost(0) == pytest.approx(0.001)
    assert params.send_cost(1000) == pytest.approx(0.001 + 0.1)
    assert params.recv_cost(1000) == pytest.approx(0.05)


def test_external_medium_defaults_to_local():
    params = make_params()
    assert params.ext_send_cost(100) == pytest.approx(params.send_cost(100))


def test_external_medium_when_set():
    params = make_params(ext_send_per_byte_j=1e-3, ext_send_base_j=0.01)
    assert params.ext_send_cost(100) == pytest.approx(0.01 + 0.1)


def test_with_message_bytes_and_with_n_copies():
    params = make_params()
    bigger = params.with_message_bytes(1024)
    assert bigger.message_bytes == 1024
    assert params.message_bytes == 256
    larger = params.with_n(20)
    assert larger.n == 20 and larger.f == params.f


def test_parameters_from_components_extracts_slopes():
    params = parameters_from_components(
        n=8,
        f=3,
        message_bytes=512,
        medium=wifi_medium(),
        signature=RSA_1024,
        external_medium=lte_medium(),
        k=2,
    )
    assert params.sign_j == pytest.approx(0.4)
    assert params.verify_j == pytest.approx(0.02)
    # 4G per-byte cost is much larger than WiFi per-byte cost.
    assert params.ext_send_per_byte_j > params.send_per_byte_j
    assert params.signature_bytes == 128
    assert params.k == 2


def test_parameters_from_components_accepts_scheme_name():
    params = parameters_from_components(
        n=4, f=1, message_bytes=64, medium=wifi_medium(), signature="hmac-sha256"
    )
    assert params.sign_j == pytest.approx(0.19)


def test_cost_function_clamps_tiny_negative_noise():
    fn = CostFunction("noise", lambda p: -1e-15)
    assert fn(make_params()) == 0.0
