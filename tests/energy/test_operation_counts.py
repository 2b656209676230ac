"""The meters' integer counts equal the counters of the layers that did the work.

A meter counts each operation it charges.  The signature scheme counts
every signature it makes and checks, and the network counts every physical
transmission.  Read at ``finish()``, with no trace recorder attached (its
audit re-verifies certificates without charging anyone), the three agree
exactly on every replica: the first of the paper's closed forms that holds
as an integer equality.

The trusted baseline's control node is the exception the model makes on
purpose: its ``TB_ORDER`` signatures (two per ordered block) are
infrastructure cost and are never charged.
"""

import pytest

from repro.energy.meter import EnergyCategory
from repro.session import Session
from tests.testkit.test_event_plane_pins import faulty_leader_spec
from tests.testkit.test_golden_fingerprints import golden_spec

CASES = {
    "golden/eesmr": golden_spec("eesmr"),
    "golden/sync-hotstuff": golden_spec("sync-hotstuff"),
    "golden/optsync": golden_spec("optsync"),
    "golden/trusted-baseline": golden_spec("trusted-baseline"),
    "equivocate/eesmr": faulty_leader_spec("equivocate", "eesmr"),
    "silent_leader/sync-hotstuff": faulty_leader_spec("silent_leader", "sync-hotstuff"),
}


def operations(meter, category: EnergyCategory) -> int:
    """Operations of ``category`` the meter counted, over every unit cost."""
    return sum(times for (charged, _), times in meter.counts.items() if charged == category)


@pytest.mark.parametrize("case", list(CASES))
def test_meter_counts_equal_the_scheme_and_network_counters(case):
    session = Session.from_spec(CASES[case]).run()
    session.finish()
    scheme, stats = session.scheme, session.network.stats
    for pid, meter in sorted(session.ledger.meters.items()):
        transmissions = operations(meter, EnergyCategory.TRANSMIT)
        assert transmissions == stats.per_node_transmissions[pid], pid
        if pid == session.control_id:
            control = session.network.processes[pid]
            assert control.blocks_ordered > 0
            assert operations(meter, EnergyCategory.SIGN) == 0
            assert scheme.sign_counts[pid] == 2 * control.blocks_ordered
            continue
        assert operations(meter, EnergyCategory.SIGN) == scheme.sign_counts[pid], pid
        assert operations(meter, EnergyCategory.VERIFY) == scheme.verify_counts[pid], pid
