"""Scenario-matrix tests.

The tier-1 (fast) tests check the enumeration, a representative slice of
cells, and the differential machinery.  The exhaustive sweeps — every
protocol × every fault schedule × every medium — run under the ``matrix``
marker (``make test-matrix`` / ``pytest -m matrix``).
"""

import dataclasses

import pytest

from repro.eval.runner import MEDIA, PROTOCOLS
from repro.testkit.scenarios import (
    ALL_FAULTS,
    COMPOSED_FAULTS,
    DEFAULT_FAULTS,
    FAULT_LIBRARY,
    MATRIX_TOPOLOGIES,
    MatrixReport,
    ScenarioCell,
    ScenarioMatrix,
    Verdict,
    differential_failures,
    judge,
    schedule_feasibility,
)
from repro.session.builder import SessionBuilder
from repro.testkit.invariants import DEFAULT_INVARIANTS, InvariantViolation


class TwoEdgeMatrix(ScenarioMatrix):
    """A matrix whose random-kcast cells give every node two out-edges."""

    def build_spec(self, cell):
        return dataclasses.replace(super().build_spec(cell), edges_per_node=2)


def test_default_matrix_covers_at_least_36_cells():
    cells = ScenarioMatrix().cells()
    assert len(cells) >= 36
    combos = {(c.protocol, c.fault, c.medium) for c in cells}
    assert len(combos) == len(cells), "cells must be distinct (protocol, fault, medium) points"
    assert {c.protocol for c in cells} == set(PROTOCOLS)
    assert {c.medium for c in cells} == set(MEDIA)
    assert {c.fault for c in cells} == set(DEFAULT_FAULTS)


def test_fault_library_has_the_papers_scenarios_and_more():
    assert {"none", "crash-leader", "stall-leader", "equivocate-leader", "silent-relay"} <= set(
        FAULT_LIBRARY
    )
    assert len(ALL_FAULTS) >= 7


def test_fault_library_has_composed_multi_fault_schedules():
    """The f>1 slice: every composed entry injects more than one fault."""
    assert len(COMPOSED_FAULTS) >= 3
    assert set(COMPOSED_FAULTS) <= set(FAULT_LIBRARY)
    for name in COMPOSED_FAULTS:
        schedule = FAULT_LIBRARY[name](5)
        assert len(schedule.faults) >= 2, name
    # At least two entries put several nodes under *Byzantine* control.
    multi_byzantine = [
        name for name in COMPOSED_FAULTS if len(FAULT_LIBRARY[name](5).byzantine_nodes()) >= 2
    ]
    assert len(multi_byzantine) >= 2


def test_build_spec_raises_f_to_the_byzantine_count():
    matrix = ScenarioMatrix()  # matrix-wide f=1
    spec = matrix.build_spec(ScenarioCell("eesmr", "crash-leader+silent-relay", "ble"))
    assert spec.f == 2
    assert len(spec.byzantine_nodes) == 2
    honest = matrix.build_spec(ScenarioCell("eesmr", "none", "ble"))
    assert honest.f == 1


def test_unknown_fault_name_rejected():
    with pytest.raises(ValueError, match="unknown fault schedules"):
        ScenarioMatrix(fault_names=("none", "gremlins"))


def test_representative_cells_pass_all_invariants():
    """A cheap slice touching every protocol, a Byzantine fault and a
    non-BLE medium, kept fast enough for tier-1."""
    matrix = ScenarioMatrix()
    for cell in (
        ScenarioCell("eesmr", "equivocate-leader", "ble"),
        ScenarioCell("sync-hotstuff", "crash-leader", "wifi"),
        ScenarioCell("optsync", "crash-leader", "4g-lte"),
        ScenarioCell("trusted-baseline", "none", "ble"),
    ):
        outcome = judge(cell, matrix.build_spec(cell), SessionBuilder)
        assert outcome.ok, f"{cell.label()}: {[r.detail for r in outcome.violations()]}"
        assert len(outcome.reports) == len(DEFAULT_INVARIANTS)


def test_cells_are_deterministic_per_seed():
    matrix = ScenarioMatrix()
    cell = ScenarioCell("eesmr", "crash-leader", "ble")
    first = judge(cell, matrix.build_spec(cell), SessionBuilder)
    second = judge(cell, matrix.build_spec(cell), SessionBuilder)
    assert first.evidence.trace.fingerprint() == second.evidence.trace.fingerprint()


def test_differential_check_flags_divergent_logs():
    matrix = ScenarioMatrix()
    outcomes = [
        judge(cell, matrix.build_spec(cell), SessionBuilder)
        for cell in (
            ScenarioCell("eesmr", "none", "ble"),
            ScenarioCell("sync-hotstuff", "none", "ble"),
        )
    ]
    assert differential_failures(outcomes) == []
    # Tamper with one protocol's committed log: the checker must object.
    log = outcomes[1].evidence.trace.committed_commands
    for pid in log:
        log[pid] = ["tampered-command"] + log[pid][1:]
    failures = differential_failures(outcomes)
    assert failures and "differential" in failures[0]


@pytest.mark.parametrize("block_interval", [0.0, 2.0])
def test_differential_check_compares_preloaded_groups_only(block_interval):
    """An open-loop cell commits what its proposals met among the arrivals
    (EESMR's back-to-back proposals run ahead of them and commit nothing),
    so only the closed-loop preload groups are compared across protocols."""
    matrix = ScenarioMatrix(
        fault_names=("none",),
        media=("ble",),
        workloads=("preload", "open-loop"),
        impairments=("none", "ble-calibrated", "lossy"),
        block_interval=block_interval,
    )
    report = matrix.run()
    report.assert_clean()
    assert {o.cell.workload for o in report.outcomes} == {"preload", "open-loop"}
    # A preload group is still compared: tamper with one member's log.
    group = [o for o in report.outcomes if o.cell.workload == "preload" and o.cell.impairment == "lossy"]
    log = group[1].evidence.trace.committed_commands
    for pid in log:
        log[pid] = ["tampered-command"] + log[pid][1:]
    failures = differential_failures(report.outcomes)
    assert len(failures) == 1 and failures[0].startswith(f"differential: {group[1].cell.label()} ")


def test_matrix_report_assert_clean_raises_with_cell_labels():
    report = MatrixReport()
    report.differential_failures = ["differential: something diverged"]
    with pytest.raises(InvariantViolation, match="scenario-matrix failures"):
        report.assert_clean()


def test_infeasible_cell_skipped_with_lemma_a5_reason():
    """Adjacent crashes at 0 and n-1 exceed the k=2 ring's fault bound; the
    matrix must skip the cell with an explanatory reason, not fail it."""
    matrix = ScenarioMatrix()
    reason = schedule_feasibility(matrix.build_spec(ScenarioCell("eesmr", "two-crashes", "ble")))
    assert reason is not None and "Lemma A.5" in reason
    # The same schedule is feasible on a denser topology...
    dense = ScenarioMatrix(topologies=("fully-connected",))
    assert schedule_feasibility(
        dense.build_spec(ScenarioCell("eesmr", "two-crashes", "ble", "fully-connected"))
    ) is None
    # ...and for the trusted baseline, whose leaves only talk to the hub.
    assert schedule_feasibility(matrix.build_spec(ScenarioCell("trusted-baseline", "two-crashes", "ble"))) is None


def test_quorum_bound_infeasibility_reason():
    """Two Byzantine nodes at n=4 break 2f < n: skip, don't fail."""
    matrix = ScenarioMatrix(n=4)
    reason = schedule_feasibility(matrix.build_spec(ScenarioCell("eesmr", "crash-leader+silent-relay", "ble")))
    assert reason is not None and "honest-majority" in reason


def test_run_records_skips_and_stays_clean():
    matrix = ScenarioMatrix(
        protocols=("eesmr",), fault_names=("none", "two-crashes"), media=("ble",)
    )
    report = matrix.run()
    assert report.cells_run == 1
    assert report.cells_skipped == 1
    assert isinstance(report.skipped[0], Verdict)
    assert "Lemma A.5" in report.skipped[0].skip_reason
    assert "two-crashes" in str(report.skipped[0].cell)
    report.assert_clean()  # skips are not failures


def test_matrix_topologies_include_star_and_random_kcast():
    assert {"star", "random-kcast"} <= set(MATRIX_TOPOLOGIES)


def test_unconstructible_topology_skips_instead_of_crashing():
    """An unsatisfiable random-kcast request (only comb(4,4)=1 distinct
    receiver set, 2 asked) must skip the cell with a reason, not blow up
    the whole sweep."""
    matrix = TwoEdgeMatrix(
        protocols=("eesmr", "trusted-baseline"),
        fault_names=("none", "crash-leader"),
        media=("ble",),
        topologies=("random-kcast",),
        k=4,
    )
    report = matrix.run()
    # The eesmr cells (fault-free included) are skipped; trusted-baseline
    # never builds the cell topology (it always runs the control star).
    assert report.cells_run == 2
    assert report.cells_skipped == 2
    assert all("cannot be built" in skip.skip_reason for skip in report.skipped)
    report.assert_clean()


def test_star_and_random_kcast_cells_pass_all_invariants():
    """One representative cell per new topology axis, fast enough for tier-1."""
    for topology, fault in (("star", "crash-leader"), ("random-kcast", "none")):
        matrix = ScenarioMatrix(topologies=(topology,))
        cell = ScenarioCell("eesmr", fault, "ble", topology)
        assert schedule_feasibility(matrix.build_spec(cell)) is None
        outcome = judge(cell, matrix.build_spec(cell), SessionBuilder)
        assert outcome.ok, f"{cell.label()}: {[r.detail for r in outcome.violations()]}"


def test_random_kcast_cells_deterministic_per_seed():
    matrix = TwoEdgeMatrix(topologies=("random-kcast",))
    cell = ScenarioCell("eesmr", "none", "ble", "random-kcast")
    first = judge(cell, matrix.build_spec(cell), SessionBuilder)
    second = judge(cell, matrix.build_spec(cell), SessionBuilder)
    assert first.evidence.trace.fingerprint() == second.evidence.trace.fingerprint()


def test_composed_fault_cell_passes_with_degraded_window_liveness():
    """equivocate+drop-window: recovery runs through the degraded window and
    the drop node — which keeps receiving — is still held to full liveness."""
    matrix = ScenarioMatrix()
    cell = ScenarioCell("eesmr", "equivocate+drop-window", "ble")
    outcome = judge(cell, matrix.build_spec(cell), SessionBuilder)
    assert outcome.ok, [r.detail for r in outcome.violations()]
    drop_node = matrix.n - 2
    assert outcome.evidence.trace.committed_heights[drop_node] >= matrix.target_height


def test_impairment_axis_multiplies_cells_and_labels():
    matrix = ScenarioMatrix(
        protocols=("eesmr",),
        fault_names=("none",),
        media=("ble",),
        impairments=("none", "lossy"),
    )
    cells = matrix.cells()
    assert len(cells) == 2
    assert {c.impairment for c in cells} == {"none", "lossy"}
    labels = sorted(c.label() for c in cells)
    # Only non-default impairments tag the label.
    assert labels[0] == "eesmr×none×ble×ring-kcast"
    assert labels[1] == "eesmr×none×ble×ring-kcast×lossy"
    spec = matrix.build_spec(next(c for c in cells if c.impairment == "lossy"))
    assert spec.impairment is not None and spec.impairment.loss == 0.2


def test_unknown_impairment_name_rejected():
    with pytest.raises(ValueError, match="unknown impairment"):
        ScenarioMatrix(impairments=("gremlin-field",))


def test_uncoverable_loss_cell_skips_with_reason():
    """Unbounded loss whose residual exceeds the retry budget's coverage
    can never satisfy liveness: the cell must be skipped, not failed."""
    matrix = ScenarioMatrix(
        protocols=("eesmr",),
        fault_names=("none",),
        media=("ble",),
        impairments=("loss:0.9",),
    )
    report = matrix.run()
    assert report.cells_run == 0
    assert report.cells_skipped == 1
    assert "loss" in report.skipped[0].skip_reason
    report.assert_clean()


def test_ble_operating_point_all_protocols_safe_and_live():
    """The Fig. 2a calibrated BLE point: per-beacon loss ≈ 0.2475, and the
    k-cast redundancy of 8 leaves a residual miss probability of
    0.2475**8 ≈ 1.4e-5.  Every protocol must commit safely and stay live
    with the calibrated impairment switched on."""
    from repro.net.impairment import AdvertisementLossModel

    model = AdvertisementLossModel()
    assert model.receiver_miss_probability(1) == pytest.approx(0.2475, abs=1e-4)
    assert model.receiver_miss_probability(8) == pytest.approx(0.2475**8)

    matrix = ScenarioMatrix(
        fault_names=("none",), media=("ble",), impairments=("ble-calibrated",)
    )
    report = matrix.run()
    assert report.cells_run == 4
    report.assert_clean()
    for outcome in report.outcomes:
        # The impairment was engaged (every hop judged), and the stats
        # section made it into the trace.
        stats = outcome.evidence.trace.network["impairments"]
        assert stats["attempts"] > 0, outcome.cell.label()
        assert outcome.evidence.trace.committed_heights, outcome.cell.label()


@pytest.mark.matrix
def test_full_default_matrix_36_cells():
    """The canonical 4 protocols × 3 faults × 3 media sweep."""
    report = ScenarioMatrix().run()
    assert report.cells_run == 36
    report.assert_clean()


@pytest.mark.matrix
def test_extended_matrix_every_fault_in_the_library():
    """Every library entry (composed schedules included) on every protocol
    and medium; infeasible (topology, fault) pairs are skipped with reasons."""
    report = ScenarioMatrix(fault_names=ALL_FAULTS).run()
    total = len(PROTOCOLS) * len(ALL_FAULTS) * len(MEDIA)
    assert report.cells_run + report.cells_skipped == total
    # Two library entries are deliberately infeasible on the default k=2
    # ring for the replicated protocols: `two-crashes` (adjacent victims)
    # and `adaptive-leader-crash-f2` (budget 2 with adversarial placement).
    assert report.cells_run >= total - 2 * len(MEDIA) * (len(PROTOCOLS) - 1)
    for skip in report.skipped:
        assert skip.skip_reason  # every skip is explained
    report.assert_clean()


@pytest.mark.matrix
def test_matrix_on_fully_connected_topology():
    report = ScenarioMatrix(topologies=("fully-connected",), k=4).run()
    assert report.cells_run == 36
    report.assert_clean()


@pytest.mark.matrix
def test_matrix_on_star_topology():
    """The star axis: every protocol floods through the relay hub."""
    report = ScenarioMatrix(topologies=("star",), fault_names=ALL_FAULTS, media=("ble",)).run()
    assert report.cells_run >= 40
    report.assert_clean()


@pytest.mark.matrix
def test_matrix_on_random_kcast_topology():
    """The seeded random-hypergraph axis, dense enough to tolerate faults."""
    report = TwoEdgeMatrix(
        topologies=("random-kcast",), k=3, media=("ble",),
        fault_names=DEFAULT_FAULTS + ("crash-leader+silent-relay", "stacked-drop-windows"),
    ).run()
    assert report.cells_run >= 16
    report.assert_clean()


@pytest.mark.matrix
def test_matrix_composed_faults_across_topologies():
    """The f>1 slice swept over three topology axes at once."""
    report = ScenarioMatrix(
        fault_names=COMPOSED_FAULTS,
        media=("ble",),
        topologies=("ring-kcast", "fully-connected", "star"),
        k=2,
    ).run()
    total = len(PROTOCOLS) * len(COMPOSED_FAULTS) * 3
    assert report.cells_run + report.cells_skipped == total
    # two-crashes is infeasible on the k=2 ring for the quorum protocols
    # but runs everywhere else.
    assert 0 < report.cells_skipped < total / 2
    report.assert_clean()


@pytest.mark.matrix
@pytest.mark.slow
def test_matrix_at_larger_scale():
    """n=7, f=2 — a second operating point of the feasibility analysis."""
    report = ScenarioMatrix(n=7, f=2, k=3, seed=41).run()
    assert report.cells_run == 36
    report.assert_clean()


@pytest.mark.matrix
def test_matrix_large_n_operating_point():
    """n=40 cells — the larger operating points the PR-2 speedups paid for."""
    report = ScenarioMatrix(
        protocols=("eesmr", "sync-hotstuff"),
        fault_names=("none", "crash-leader+silent-relay", "stacked-drop-windows"),
        media=("ble",),
        n=40,
        f=2,
        k=4,
        target_height=2,
        seed=11,
    ).run()
    assert report.cells_run == 6
    report.assert_clean()


@pytest.mark.matrix
def test_matrix_large_n_random_kcast():
    """A second n=40 point on the seeded random-hypergraph axis."""
    report = TwoEdgeMatrix(
        protocols=("eesmr",),
        fault_names=("none", "crash-leader"),
        media=("ble",),
        topologies=("random-kcast",),
        n=40,
        k=4,
        target_height=2,
        seed=11,
    ).run()
    assert report.cells_run == 2
    report.assert_clean()


# ------------------------------------------------- recovery-bearing cells
@pytest.mark.recovery
def test_promoted_corpus_pair_splits_the_protocols():
    """The first corpus → matrix promotion: the PR 6 differential finding
    (corpus entries ``shs-leader-partition`` / ``eesmr-leader-partition``)
    as the permanent named cell ``leader-partition-fork``.  A 0.25 s leader
    partition right at the commit boundary forks Sync HotStuff (its
    commit-by-timeout rests on synchrony) while EESMR's relay-everything
    dissemination absorbs it — so the pair is asserted *differentially*
    here and excluded from the all-protocol sweep."""
    matrix = ScenarioMatrix(
        protocols=("eesmr", "sync-hotstuff"),
        fault_names=("leader-partition-fork",),
        media=("ble",),
        block_interval=2.0,
        seed=29,
    )
    report = matrix.run()
    assert not report.skipped
    by_protocol = {o.cell.protocol: o for o in report.outcomes}
    assert by_protocol["eesmr"].ok, [r.detail for r in by_protocol["eesmr"].violations()]
    shs = by_protocol["sync-hotstuff"]
    assert not shs.ok, "the promoted schedule must still fork Sync HotStuff"
    assert "agreement" in {r.name for r in shs.violations()}


def test_differential_faults_are_excluded_from_the_full_sweep():
    from repro.testkit.scenarios import DIFFERENTIAL_FAULTS

    assert set(DIFFERENTIAL_FAULTS) <= set(FAULT_LIBRARY)
    assert not set(DIFFERENTIAL_FAULTS) & set(ALL_FAULTS)
    assert "leader-partition-fork" in DIFFERENTIAL_FAULTS


@pytest.mark.recovery
@pytest.mark.parametrize("fault", ("partition-heal", "crash-recover"))
@pytest.mark.parametrize("protocol", ("eesmr", "sync-hotstuff"))
def test_healed_cells_assert_post_heal_liveness(protocol, fault):
    """Recovery-bearing cells don't just pass the battery: the healed node
    demonstrably commits the *full* target after the heal — catch-up is a
    checked obligation, not an exemption."""
    matrix = ScenarioMatrix(block_interval=2.0)
    cell = ScenarioCell(protocol, fault, "ble")
    outcome = judge(cell, matrix.build_spec(cell), SessionBuilder)
    assert outcome.ok, [r.detail for r in outcome.violations()]
    healed_node = matrix.n - 1
    assert outcome.evidence.trace.committed_heights[healed_node] >= matrix.target_height


@pytest.mark.matrix
def test_recovery_cells_across_all_protocols_and_media():
    """The full recovery slice: every protocol × every medium × every
    recovery-bearing schedule, battery-clean, with the healed node at
    full height in every cell."""
    recovery_faults = (
        "partition-heal",
        "crash-recover",
        "rolling-partitions",
        "overlapping-partitions",
    )
    matrix = ScenarioMatrix(fault_names=recovery_faults, block_interval=2.0)
    report = matrix.run()
    assert not report.skipped
    report.assert_clean()
    for outcome in report.outcomes:
        heights = outcome.evidence.trace.committed_heights
        # >= : rolling schedules can legitimately overshoot the target
        # while the last window heals.
        assert heights[matrix.n - 1] >= matrix.target_height, outcome.cell.label()


@pytest.mark.matrix
@pytest.mark.parametrize("block_interval", (0, 2.0))
def test_recovery_cells_over_120_seeds(block_interval):
    """Every protocol heals a partition and a power cycle at 120 run seeds
    (n=5, BLE, preload).  Before OptSync certified at n/2 + 1, 11 of its 480
    cells (both block intervals) stalled one block short under crash-recover:
    only the leader held the last block's 3n/4 + 1 certificate."""
    for seed in range(120):
        report = ScenarioMatrix(
            fault_names=("partition-heal", "crash-recover"),
            media=("ble",),
            block_interval=block_interval,
            seed=seed,
        ).run()
        assert report.cells_run == 2 * len(PROTOCOLS), seed
        report.assert_clean()
