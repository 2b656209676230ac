"""Property tests: slot tallies read back as the counts a keyed counter would hold.

Meters keep ``{slot: count}`` tallies over one shared :class:`UnitTable`, and
the hot paths add to precompiled slots instead of calling ``charge``.  Both
writers are checked against a reference that keys every charge by
``(category, unit_j)`` in a ``defaultdict`` — the layout the views promise:

* at the table level, random interleavings of ``charge``, direct slot
  increments and rejected negative units over several meters;
* at the network level, random k-casts and unicasts (whose transmit and
  receive charges are slot increments precompiled per shape) interleaved
  with ``charge`` calls on the same ledger.  The reference prices each
  operation from the radio models directly, so a memo that swaps the
  transmit and receive slots (in ``_kcast_cost`` or ``_unicast_cost``)
  fails here.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.ledger import ClusterEnergyLedger
from repro.energy.meter import EnergyBreakdown, EnergyCategory, price
from repro.net.network import default_wire_size
from repro.sim.process import Process
from tests.conftest import make_network

CATEGORIES = list(EnergyCategory)
#: 0.25 is drawn under every category, and the fixed prefix below charges
#: it under two, so one unit value always owns two slots.
UNITS = [0.0, 1e-3, 0.1, 0.25, 0.3]
#: The prefix every example starts with: a ``times=0`` charge and the
#: same unit under a second category, by direct increment.
PREFIX = [
    ("charge", 0, EnergyCategory.TRANSMIT, 0.25, 0),
    ("slot", 1, EnergyCategory.RECEIVE, 0.25, 1),
]

table_ops = st.lists(
    st.tuples(
        st.sampled_from(["charge", "slot", "negative"]),
        st.integers(0, 3),
        st.sampled_from(CATEGORIES),
        st.sampled_from(UNITS),
        st.integers(0, 5),
    ),
    max_size=40,
)


class Sink(Process):
    def on_message(self, sender, message):
        pass


def snapshot(ledger):
    return (
        dict(ledger.units.slots),
        list(ledger.units.keys),
        {pid: dict(meter.tally) for pid, meter in ledger.meters.items()},
    )


def assert_views_match(ledger, reference):
    for pid, meter in ledger.meters.items():
        expected = reference[pid]
        assert set(meter.counts) == set(expected)
        assert dict(meter.counts) == dict(expected)
        assert price((meter.counts,)) == price((expected,))
        assert meter.breakdown.joules == price((expected,))
        assert meter.total_joules == EnergyBreakdown(price((expected,))).total
    views = [meter.counts for meter in ledger.meters.values()]
    assert price(views) == price(reference.values())
    assert ledger.combined_breakdown().joules == price(reference.values())


@settings(max_examples=80, deadline=None)
@given(ops=table_ops)
def test_tallies_read_back_as_keyed_counts(ops):
    ledger = ClusterEnergyLedger(range(4))
    units = ledger.units
    reference = {pid: defaultdict(int) for pid in ledger.meters}
    for op, pid, category, unit_j, times in PREFIX + ops:
        meter = ledger.meters[pid]
        if op == "charge":
            meter.charge(category, unit_j, times)
        elif op == "slot":
            meter.tally[units.slot(category, unit_j)] += times
        else:
            before = snapshot(ledger)
            with pytest.raises(ValueError, match="negative"):
                meter.charge(category, -(unit_j + 1e-9), times)
            with pytest.raises(ValueError, match="negative"):
                units.slot(category, -(unit_j + 1e-9))
            assert snapshot(ledger) == before
            continue
        reference[pid][category, unit_j] += times
    assert_views_match(ledger, reference)
    # Every interned slot stands for exactly one key, and back.
    assert {key: slot for slot, key in enumerate(units.keys)} == units.slots


network_ops = st.lists(
    st.one_of(
        st.tuples(st.just("kcast"), st.integers(0, 4), st.integers(0, 4), st.integers(0, 300)),
        st.tuples(st.just("unicast"), st.integers(0, 4), st.integers(0, 4), st.integers(0, 300)),
        st.tuples(
            st.just("charge"), st.integers(0, 4), st.sampled_from(CATEGORIES),
            st.sampled_from(UNITS), st.integers(0, 3),
        ),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(ops=network_ops, seed=st.integers(0, 2**16))
def test_network_slot_increments_match_radio_priced_counts(ops, seed):
    sim, topology, ledger, network = make_network(5, 2, seed)
    for pid in topology.nodes:
        network.register(Sink(sim, pid))
    reference = {pid: defaultdict(int) for pid in ledger.meters}
    for op in ops:
        if op[0] == "charge":
            _, pid, category, unit_j, times = op
            ledger.meter(pid).charge(category, unit_j, times)
            reference[pid][category, unit_j] += times
            continue
        _, src, dst, length = op
        message = "x" * length
        size = default_wire_size(message)
        if op[0] == "kcast":
            network.multicast_neighbors(src, message)
            for edge in topology.out_edges(src):
                cost = network.kcast_radio.transmission_cost(size, edge.degree)
                reference[src][EnergyCategory.TRANSMIT, cost.sender_energy_j] += 1
                for receiver in edge.receivers_sorted:
                    reference[receiver][EnergyCategory.RECEIVE, cost.per_receiver_energy_j] += 1
        else:
            network.send(src, dst, message)
            cost = network.unicast_radio.transmission_cost(size)
            reference[src][EnergyCategory.TRANSMIT, cost.sender_energy_j] += 1
            reference[dst][EnergyCategory.RECEIVE, cost.receiver_energy_j] += 1
    sim.run(max_events=100_000)
    assert_views_match(ledger, reference)
