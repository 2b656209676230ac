"""Regression tests for the ``schedule_from_dict`` error path.

Before the fuzzer PR, a bad entry in a serialised schedule raised a bare
``ValueError`` with no indication of *which* entry was at fault — painful
exactly when it matters, i.e. when a hand-edited corpus file or an
external reproducer fails to load.  Now every entry error is wrapped with
the offending index, and adaptive atoms deserialised from JSON re-run the
same static-field validation the constructor applies.
"""

import pytest

from repro.testkit.faults import (
    FAULT_KINDS,
    Fault,
    LeaderFollowingCrash,
    fault_from_dict,
    schedule_from_dict,
)
from tests.conftest import assert_rebuildable_dataclass, registry_inventory


def test_fault_kinds_registers_every_atom():
    """A fault atom missing from ``FAULT_KINDS`` cannot be rebuilt from a
    spec, a corpus entry or the fuzzer's roster; an atom that is not its
    own dataclass, or hides a field from ``describe()``, does not round-trip."""
    atoms = registry_inventory(Fault)
    assert atoms == set(FAULT_KINDS.values())
    assert all(FAULT_KINDS[cls.__name__] is cls for cls in atoms)
    for cls in atoms:
        assert_rebuildable_dataclass(cls)


def test_unknown_kind_names_the_offending_entry_index():
    entries = [
        {"kind": "CrashAt", "node": 1, "time": 2.0},
        {"kind": "Bogus", "node": 0},
    ]
    with pytest.raises(ValueError, match=r"fault entry 1: .*unknown fault kind"):
        schedule_from_dict(entries)


def test_invalid_field_names_the_offending_entry_index():
    entries = [
        {"kind": "PartitionWindow", "node": 0, "start": 5.0, "heal": 1.0},
        {"kind": "CrashAt", "node": 1, "time": 2.0},
    ]
    with pytest.raises(ValueError, match="fault entry 0"):
        schedule_from_dict(entries)


def test_error_chains_to_the_original_cause():
    try:
        schedule_from_dict([{"kind": "Bogus"}])
    except ValueError as error:
        assert isinstance(error.__cause__, (ValueError, TypeError))
    else:
        pytest.fail("expected ValueError")


def test_round_trip_is_a_fixed_point():
    entries = [
        {"kind": "CrashAt", "node": 1, "time": 2.0},
        {"kind": "RelayDropWindow", "node": 2, "start": 1.0, "end": 3.5},
        {"kind": "LeaderFollowingCrash", "budget": 2, "start": 0.5, "interval": 1.0},
    ]
    schedule = schedule_from_dict(entries)
    assert schedule.describe() == schedule_from_dict(schedule.describe()).describe()


# ------------------------------------------------------- adaptive re-validation
def test_adaptive_atom_from_json_revalidates_budget_type():
    """JSON happily carries ``"budget": "2"`` or ``true`` — deserialising
    must reject them just like the constructor does."""
    for bad in ("2", True, None, 2.0):
        with pytest.raises(ValueError, match="adaptive budget must be an int"):
            fault_from_dict(
                {"kind": "LeaderFollowingCrash", "budget": bad, "start": 0.0, "interval": 1.0}
            )


def test_adaptive_atom_from_json_revalidates_numeric_fields():
    for field in ("start", "interval"):
        payload = {"kind": "LeaderFollowingCrash", "budget": 1, "start": 0.0, "interval": 1.0}
        payload[field] = "soon"
        with pytest.raises(ValueError, match=f"adaptive {field} must be a number"):
            fault_from_dict(payload)


def test_adaptive_atom_from_json_still_range_checks():
    with pytest.raises(ValueError, match="budget"):
        fault_from_dict(
            {"kind": "LeaderFollowingCrash", "budget": 0, "start": 0.0, "interval": 1.0}
        )


def test_adaptive_validation_errors_carry_the_entry_index():
    entries = [
        {"kind": "CrashAt", "node": 1, "time": 2.0},
        {"kind": "LeaderFollowingCrash", "budget": "2", "start": 0.0, "interval": 1.0},
    ]
    with pytest.raises(ValueError, match="fault entry 1: .*adaptive budget"):
        schedule_from_dict(entries)


def test_valid_adaptive_atom_round_trips():
    atom = LeaderFollowingCrash(budget=2, start=1.5, interval=0.5)
    rebuilt = fault_from_dict(atom.describe())
    assert isinstance(rebuilt, LeaderFollowingCrash)
    assert rebuilt.describe() == atom.describe()
