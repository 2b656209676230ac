"""Sharded matrix execution: determinism, picklability, env-driven knob.

``ScenarioMatrix.run(parallel=N)`` shards cells over a process pool.
Cells are independent seeded runs, so the only things that could diverge
are merge order and pickling — both pinned here: a parallel report must
be identical to a serial one cell for cell, byte for byte.
"""

import pickle

import pytest

import repro.session.session as session_module
from repro.net.impairment import SpecError
from repro.testkit.scenarios import (
    CellOutcome,
    ScenarioCell,
    ScenarioMatrix,
    SkippedCell,
)

SMALL = dict(
    protocols=("eesmr", "sync-hotstuff"),
    fault_names=("none", "crash-leader"),
    media=("ble",),
)


def test_parallel_run_is_byte_identical_to_serial():
    matrix = ScenarioMatrix(**SMALL)
    serial = matrix.run(parallel=1)
    parallel = matrix.run(parallel=2)
    assert serial.cells_run == parallel.cells_run
    assert serial.ok and parallel.ok
    assert [o.cell for o in serial.outcomes] == [o.cell for o in parallel.outcomes]
    serial_fps = [o.evidence.trace.fingerprint() for o in serial.outcomes]
    parallel_fps = [o.evidence.trace.fingerprint() for o in parallel.outcomes]
    assert serial_fps == parallel_fps


def test_parallel_run_records_skips_and_differentials_like_serial():
    matrix = ScenarioMatrix(
        protocols=("eesmr",), fault_names=("none", "two-crashes"), media=("ble",)
    )
    serial = matrix.run(parallel=1)
    parallel = matrix.run(parallel=2)
    assert [s.cell for s in serial.skipped] == [s.cell for s in parallel.skipped]
    assert [s.reason for s in serial.skipped] == [s.reason for s in parallel.skipped]
    assert serial.differential_failures == parallel.differential_failures
    parallel.assert_clean()


def test_cell_outcome_and_skipped_cell_are_picklable():
    matrix = ScenarioMatrix(**SMALL)
    cell = ScenarioCell("eesmr", "crash-leader", "ble")
    outcome = matrix.run_cell(cell, matrix.build_spec(cell))
    clone = pickle.loads(pickle.dumps(outcome))
    assert isinstance(clone, CellOutcome)
    assert clone.ok == outcome.ok
    assert clone.cell == outcome.cell
    assert clone.evidence.trace.fingerprint() == outcome.evidence.trace.fingerprint()
    assert [r.name for r in clone.reports] == [r.name for r in outcome.reports]

    skip = SkippedCell(ScenarioCell("eesmr", "two-crashes", "ble"), "because")
    assert pickle.loads(pickle.dumps(skip)) == skip


def test_parallel_default_reads_environment_knob(monkeypatch):
    matrix = ScenarioMatrix(protocols=("eesmr",), fault_names=("none",), media=("ble",))
    monkeypatch.setenv("REPRO_MATRIX_PARALLEL", "2")
    report = matrix.run()  # parallel=None -> env
    assert report.cells_run == 1
    report.assert_clean()
    monkeypatch.setenv("REPRO_MATRIX_PARALLEL", "")
    assert matrix.run().cells_run == 1  # empty value falls back to serial


def test_malformed_parallel_knob_is_a_spec_error(monkeypatch):
    matrix = ScenarioMatrix(protocols=("eesmr",), fault_names=("none",), media=("ble",))
    monkeypatch.setenv("REPRO_MATRIX_PARALLEL", "two")
    with pytest.raises(SpecError, match="^REPRO_MATRIX_PARALLEL: expected a worker count, got 'two'$"):
        matrix.run()


def test_parallel_worker_failure_propagates(monkeypatch):
    """A cell that raises inside a worker must surface, not vanish: as its
    failed ``no-livelock`` report, exactly as in a serial sweep."""
    monkeypatch.setattr(session_module, "MAX_EVENTS", 1)  # guaranteed livelock trip
    matrix = ScenarioMatrix(**SMALL)
    report = matrix.run(parallel=2)
    assert report.cells_run == 4
    assert [r.name for o in report.outcomes for r in o.reports] == ["no-livelock"] * 4
    assert all("max_events" in failure for failure in report.failures())
    assert report.failures() == matrix.run(parallel=1).failures()


@pytest.mark.matrix
def test_parallel_full_default_matrix_matches_serial():
    """The canonical 36-cell sweep, sharded, against its serial twin."""
    matrix = ScenarioMatrix()
    serial = matrix.run(parallel=1)
    parallel = matrix.run(parallel=2)
    assert serial.cells_run == parallel.cells_run == 36
    serial_fps = {
        o.cell.label(): o.evidence.trace.fingerprint() for o in serial.outcomes
    }
    parallel_fps = {
        o.cell.label(): o.evidence.trace.fingerprint() for o in parallel.outcomes
    }
    assert serial_fps == parallel_fps
    parallel.assert_clean()


@pytest.mark.matrix
def test_parallel_matrix_large_n_operating_point():
    """An n=100 operating point: feasible, clean, and deterministic under
    sharding — the growth direction this PR's compiled plans pay for."""
    matrix = ScenarioMatrix(
        protocols=("eesmr",),
        fault_names=("none", "crash-leader"),
        media=("ble",),
        n=100,
        f=2,
        k=4,
        target_height=2,
        seed=11,
    )
    serial = matrix.run(parallel=1)
    parallel = matrix.run(parallel=2)
    assert serial.cells_run == parallel.cells_run == 2
    assert [o.evidence.trace.fingerprint() for o in serial.outcomes] == [
        o.evidence.trace.fingerprint() for o in parallel.outcomes
    ]
    serial.assert_clean()
    parallel.assert_clean()
