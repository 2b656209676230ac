"""Unit tests for the wire-level impairment model and reliable sublayer.

Covers the spec surface (validation, describe round-trip, the CLI clause
grammar), the model's delivery verdicts (drop → retransmission recovery,
give-up under a zeroed budget, duplicate/jitter counters), per-node
overlays, and the determinism contract: impairment draws come from a
dedicated child stream, so a disabled model leaves delivery byte-identical
and an enabled one is a pure function of the seed.
"""

import pytest

from repro.energy.meter import EnergyCategory
from repro.net.impairment import (
    HOP_RETRY,
    ImpairmentSpec,
    compose_loss,
    impairment_from_dict,
    parse_impairment,
)
from tests.net.test_network import build


def impaired_build(spec, n=5, k=2, seed=3):
    sim, topology, ledger, network, sinks = build(n=n, k=k, seed=seed)
    network.configure_impairment(spec)
    return sim, topology, ledger, network, sinks


def delivery_times(sinks):
    return {pid: [t for (_, _, t) in sink.messages] for pid, sink in sinks.items()}


# ------------------------------------------------------------------- spec
def test_spec_validates_probabilities():
    with pytest.raises(ValueError, match="loss"):
        ImpairmentSpec(loss=1.5)
    with pytest.raises(ValueError, match="duplicate"):
        ImpairmentSpec(duplicate=-0.1)
    with pytest.raises(ValueError, match="jitter"):
        ImpairmentSpec(jitter=-1)
    with pytest.raises(ValueError, match="max_retries"):
        ImpairmentSpec(max_retries=-1)
    with pytest.raises(ValueError, match="window"):
        ImpairmentSpec(loss=0.5, start=5.0, end=5.0)


def test_spec_describe_roundtrip_is_fixed_point():
    spec = ImpairmentSpec(loss=0.25, jitter=0.5, start=1.0, end=6.0, max_retries=5)
    entry = spec.describe()
    rebuilt = impairment_from_dict(entry)
    assert rebuilt == spec
    assert rebuilt.describe() == entry
    # Defaults are omitted entirely: a minimal spec has a minimal form.
    assert ImpairmentSpec(loss=0.25).describe() == {"loss": 0.25}
    assert impairment_from_dict(None) is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), True, "1.0"])
@pytest.mark.parametrize("name", ["loss", "duplicate", "jitter", "reorder", "start"])
def test_spec_rejects_non_finite_and_non_numeric_fields(name, bad):
    with pytest.raises(ValueError, match=f"impairment {name} must be"):
        ImpairmentSpec(**{name: bad})


def test_spec_end_may_be_open_but_never_nan():
    assert ImpairmentSpec(loss=0.5, end=float("inf")).active(1e12)
    with pytest.raises(ValueError, match="impairment end must be finite"):
        ImpairmentSpec(loss=0.5, end=float("nan"))
    with pytest.raises(ValueError, match="window must end after it starts"):
        ImpairmentSpec(loss=0.5, end=float("-inf"))


def test_a_nan_window_from_json_is_rejected_not_inert():
    """``json`` parses ``NaN``; ``start <= now < end`` is false for it at
    every ``now``, so the parent accepted this spec and never applied it."""
    import json

    with pytest.raises(ValueError, match="impairment start must be finite"):
        impairment_from_dict(json.loads('{"loss": 0.9, "start": NaN}'))


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="warp"):
        impairment_from_dict({"loss": 0.5, "warp": 9})


def test_disabled_spec_is_not_enabled():
    assert not ImpairmentSpec().enabled()
    assert ImpairmentSpec(loss=0.5).enabled()
    assert ImpairmentSpec(ble_calibrated=True).enabled()
    # Windows gate activity without affecting enabled().
    windowed = ImpairmentSpec(loss=0.5, start=2.0, end=4.0)
    assert windowed.enabled()
    assert not windowed.active(1.0)
    assert windowed.active(2.0)
    assert not windowed.active(4.0)


def test_compose_loss_combines_independent_events():
    assert compose_loss(0.0, 0.5) == 0.5
    assert compose_loss(0.5, 0.5) == pytest.approx(0.75)
    assert compose_loss(1.0, 0.2) == 1.0


# ---------------------------------------------------------------- grammar
def test_parse_impairment_clauses():
    spec = parse_impairment(["loss:0.4:1:6", "retries:5", "duplicate:0.1"])
    assert spec == ImpairmentSpec(
        loss=0.4, duplicate=0.1, start=1.0, end=6.0, max_retries=5
    )
    assert parse_impairment(["ble"]) == ImpairmentSpec(ble_calibrated=True)
    assert parse_impairment([]) is None


def test_parse_impairment_rejects_bad_clauses():
    with pytest.raises(ValueError, match="unknown impairment kind"):
        parse_impairment(["gremlin:0.5"])
    with pytest.raises(ValueError, match="conflicting"):
        parse_impairment(["loss:0.5:0:2", "jitter:0.5:3:4"])
    with pytest.raises(ValueError, match="window"):
        parse_impairment(["loss:0.5:1"])


# ----------------------------------------------------------- delivery path
def test_disabled_model_leaves_delivery_identical():
    """Configuring a no-op impairment must not perturb delivery times:
    the model draws from its own child stream and a disabled spec never
    draws at all."""
    sim_a, _, _, network_a, sinks_a = build()
    network_a.broadcast(0, "m")
    sim_a.run(max_events=1_000_000)

    sim_b, _, _, network_b, sinks_b = impaired_build(ImpairmentSpec())
    network_b.broadcast(0, "m")
    sim_b.run(max_events=1_000_000)

    assert delivery_times(sinks_a) == delivery_times(sinks_b)
    assert network_b.impairment.attempts == 0


def test_loss_drops_are_recovered_by_retransmission():
    spec = ImpairmentSpec(loss=0.4)
    sim, _, _, network, sinks = impaired_build(spec, seed=3)
    for i in range(4):
        network.broadcast(0, f"m{i}")
        sim.run(max_events=1_000_000)
    imp = network.impairment
    assert imp.dropped > 0, "seed 3 at loss=0.4 must drop at least one hop"
    assert imp.retransmits > 0
    assert imp.giveups == 0
    # Every drop was either retried through or implicitly ACKed: all
    # sinks end up with all four payloads exactly once.
    for pid, sink in sinks.items():
        assert sorted(m for (_, m, _) in sink.messages) == [f"m{i}" for i in range(4)], pid
    assert imp.delivery_ratio() == pytest.approx(1.0 - imp.dropped / imp.attempts)


def test_zero_retry_budget_gives_up_and_loses_deliveries():
    spec = ImpairmentSpec(loss=1.0, max_retries=0)
    sim, _, _, network, sinks = impaired_build(spec)
    network.broadcast(0, "m")
    sim.run(max_events=1_000_000)
    imp = network.impairment
    assert imp.giveups > 0
    assert imp.retransmits == 0
    # Total loss with no retries: only the origin's local delivery lands.
    delivered = [pid for pid, sink in sinks.items() if sink.messages]
    assert delivered == [0]


def test_retry_budget_exhaustion_gives_up():
    """Persistent total loss burns the whole budget then gives up —
    each chain transmits exactly max_retries retransmissions."""
    spec = ImpairmentSpec(loss=1.0, max_retries=2)
    sim, _, _, network, _ = impaired_build(spec)
    network.broadcast(0, "m")
    sim.run(max_events=1_000_000)
    imp = network.impairment
    assert imp.giveups > 0
    assert imp.recovered == 0
    assert imp.retransmits == spec.max_retries * imp.giveups


def test_duplicate_delivers_twice_on_the_wire_once_to_the_app():
    spec = ImpairmentSpec(duplicate=1.0)
    sim, _, _, network, sinks = impaired_build(spec)
    network.broadcast(0, "m")
    sim.run(max_events=1_000_000)
    imp = network.impairment
    assert imp.duplicated > 0
    # The flood dedup set absorbs the duplicates: apps see one copy.
    for sink in sinks.values():
        assert len(sink.messages) == 1


def test_jitter_delays_deliveries():
    sim_a, _, _, network_a, sinks_a = build()
    network_a.broadcast(0, "m")
    sim_a.run(max_events=1_000_000)

    sim_b, _, _, network_b, sinks_b = impaired_build(ImpairmentSpec(jitter=2.0))
    network_b.broadcast(0, "m")
    sim_b.run(max_events=1_000_000)

    imp = network_b.impairment
    assert imp.delayed > 0
    base = delivery_times(sinks_a)
    jittered = delivery_times(sinks_b)
    assert sum(t[0] for t in jittered.values() if t) > sum(t[0] for t in base.values() if t)


def test_retransmission_and_ack_energy_are_charged():
    spec = ImpairmentSpec(loss=0.6)
    sim, _, ledger, network, _ = impaired_build(spec, seed=5)
    for i in range(4):
        network.broadcast(0, f"m{i}")
        sim.run(max_events=1_000_000)
    imp = network.impairment
    assert imp.recovered > 0, "seed 5 at loss=0.6 must recover at least one drop"
    # Retransmissions charge the sender; the ACK charges the receiver's
    # transmit meter (it unicasts the ACK back).
    acked = [pid for pid in range(5) if imp.retransmits_by_node[pid] > 0]
    assert acked
    total_tx = sum(
        ledger.meter(pid).breakdown.get(EnergyCategory.TRANSMIT) for pid in range(5)
    )
    # The same workload over a clean wire costs strictly less transmit
    # energy: every retransmission and ACK is charged.
    sim_c, _, ledger_c, network_c, _ = build(seed=5)
    for i in range(4):
        network_c.broadcast(0, f"m{i}")
        sim_c.run(max_events=1_000_000)
    clean_tx = sum(
        ledger_c.meter(pid).breakdown.get(EnergyCategory.TRANSMIT) for pid in range(5)
    )
    assert total_tx > clean_tx


# ----------------------------------------------------------------- overlays
def test_node_overlays_push_and_pop():
    sim, _, _, network, sinks = build()
    network.impair_node(3, "loss", 1.0)
    network.broadcast(0, "m")
    sim.run(max_events=1_000_000)
    imp = network.impairment
    assert imp.drops_by_node[3] > 0
    network.unimpair_node(3, "loss")
    assert not imp.engaged(sim.now)
    network.broadcast(0, "m2")
    sim.run(max_events=1_000_000)
    # After the pop, node 3 receives cleanly on the first attempt.
    assert "m2" in [m for (_, m, _) in sinks[3].messages]


def test_unbalanced_unimpair_is_a_noop():
    _, _, _, network, _ = build()
    network.unimpair_node(2, "loss")  # no model yet: no-op
    network.impair_node(2, "loss", 0.5)
    network.unimpair_node(2, "loss")
    network.unimpair_node(2, "loss")  # unbalanced: no-op, must not raise
    assert not network.impairment.engaged(0.0)


def test_overlays_compose_with_global_spec():
    sim, _, _, network, _ = impaired_build(ImpairmentSpec(loss=0.5))
    imp = network.impairment
    base = imp.loss_probability(1, None, sim.now)
    assert base == pytest.approx(0.5)
    network.impair_node(1, "loss", 0.5)
    assert imp.loss_probability(1, None, sim.now) == pytest.approx(0.75)
    network.unimpair_node(1, "loss")
    assert imp.loss_probability(1, None, sim.now) == pytest.approx(0.5)


# ------------------------------------------------------------- calibration
def test_ble_calibrated_loss_uses_redundancy_exponent():
    """Fig. 2a calibration: a receiver misses a k-cast advertisement only
    if every one of the r redundant beacons is lost — p_loss ** r."""

    class Cost:
        redundancy = 8

    _, _, _, network, _ = impaired_build(ImpairmentSpec(ble_calibrated=True))
    imp = network.impairment
    p1 = imp.loss_model.receiver_miss_probability(1)
    p8 = imp.loss_probability(1, Cost(), 0.0)
    assert p8 == pytest.approx(p1**8)
    assert 0.0 < p8 < p1 < 1.0


# ------------------------------------------------------------- determinism
def test_impairment_stream_is_deterministic_per_seed():
    def run(seed):
        sim, _, _, network, sinks = impaired_build(
            ImpairmentSpec(loss=0.3, duplicate=0.2, jitter=0.5), seed=seed
        )
        for i in range(3):
            network.broadcast(0, f"m{i}")
            sim.run(max_events=1_000_000)
        return delivery_times(sinks), network.impairment.stats_dict()

    assert run(3) == run(3)
    times_a, stats_a = run(3)
    times_b, stats_b = run(4)
    assert stats_a != stats_b or times_a != times_b


def test_impairment_metrics_none_without_model():
    _, _, _, network, _ = build()
    assert network.impairment is None
    network.configure_impairment(ImpairmentSpec(loss=0.1))
    assert network.impairment.stats_dict()["attempts"] == 0


def test_configure_impairment_mirrors_retry_budget():
    """The spec's ``max_retries`` *is* the chain's budget: on a wire that
    drops everything each chain sends exactly that many copies and gives
    up — ``HOP_RETRY``'s three unless the spec says otherwise."""
    for spec, budget in (
        (ImpairmentSpec(loss=1.0), HOP_RETRY.max_retries),
        (ImpairmentSpec(loss=1.0, max_retries=6), 6),
    ):
        sim, _, _, network, _ = impaired_build(spec)
        network.broadcast(0, "m")
        sim.run(max_events=1_000_000)
        imp = network.impairment
        assert imp.giveups > 0
        assert imp.retransmits == budget * imp.giveups
