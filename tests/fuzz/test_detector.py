"""Detector tests: verdict shape, skip paths, and failure keys."""

import repro.session.session as session_module
from repro.fuzz import FuzzConfig
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.detect import Detection, Detector
from repro.session.builder import SessionBuilder
from repro.testkit.faults import (
    CrashAt,
    FaultSchedule,
    SilentFrom,
    schedule_from_dict,
)
from repro.testkit.invariants import DEFAULT_INVARIANTS, InvariantReport
from repro.testkit.scenarios import ScenarioCell, Verdict, judge


def test_honest_run_is_clean_across_all_protocols():
    config = FuzzConfig()
    detection = Detector(config).detect(None)
    assert not detection.failed
    assert [v.spec.protocol for v in detection.verdicts] == list(config.protocols)
    assert [v.cell for v in detection.verdicts] == [f"fuzz:{p}" for p in config.protocols]
    assert all(v.skip_reason is None for v in detection.verdicts)
    assert detection.failure_key() == frozenset()


def test_benign_schedule_is_clean_and_counts_runs():
    config = FuzzConfig(protocols=("eesmr", "trusted-baseline"))
    detector = Detector(config)
    detection = detector.detect(FaultSchedule((CrashAt(4, time=6.0),)))
    assert not detection.failed
    assert detector.runs == 2


def test_quorum_infeasible_schedule_is_skipped_not_run():
    """Three Byzantine nodes need f = 3 under n = 5 — every protocol must
    skip (the shared synchronous config cannot even be built with a
    Byzantine majority), with a reason instead of a crash."""
    config = FuzzConfig(protocols=("eesmr", "trusted-baseline"))
    detector = Detector(config)
    schedule = FaultSchedule((SilentFrom(1), SilentFrom(2), SilentFrom(3)))
    detection = detector.detect(schedule)
    by_protocol = {v.spec.protocol: v for v in detection.verdicts}
    assert "2f < n" in by_protocol["eesmr"].skip_reason
    assert "f < n/2" in by_protocol["trusted-baseline"].skip_reason
    assert detector.runs == 0


def test_topology_infeasible_schedule_skips_only_the_topology_bound_protocols():
    """Adjacent crashes at 0 and 4 disconnect the k = 2 ring (Lemma A.5),
    so eesmr skips — but the trusted baseline's leaves only talk to the
    control hub and still run."""
    config = FuzzConfig(protocols=("eesmr", "trusted-baseline"))
    detector = Detector(config)
    schedule = FaultSchedule((CrashAt(0, time=1.0), CrashAt(4, time=1.0)))
    detection = detector.detect(schedule)
    by_protocol = {v.spec.protocol: v for v in detection.verdicts}
    assert "Lemma A.5" in by_protocol["eesmr"].skip_reason
    assert by_protocol["trusted-baseline"].skip_reason is None
    assert detector.runs == 1


def test_detection_survives_schedule_round_trip():
    """Detecting a schedule rebuilt from its canonical description gives
    the same verdicts — the serialisation the corpus relies on."""
    config = FuzzConfig(protocols=("eesmr",))
    schedule = FaultSchedule((CrashAt(4, time=6.0), SilentFrom(3)))
    rebuilt = schedule_from_dict(schedule.describe())
    first = Detector(config).detect(schedule)
    second = Detector(config).detect(rebuilt)
    assert first.describe() == second.describe()


def verdict(protocol, *reports):
    return Verdict(f"fuzz:{protocol}", FuzzConfig().spec_for(None, protocol), list(reports))


def test_failure_key_collects_protocol_invariant_pairs():
    detection = Detection(
        schedule=FaultSchedule(),
        verdicts=[
            verdict("eesmr", InvariantReport("liveness", False, "x")),
            verdict(
                "optsync",
                InvariantReport("agreement", False, "y"),
                InvariantReport("quorum-certificates", True),
                InvariantReport("liveness", False, "z"),
            ),
            verdict("trusted-baseline", InvariantReport("liveness", True)),
        ],
    )
    assert detection.failed
    assert detection.failure_key() == frozenset(
        {("eesmr", "liveness"), ("optsync", "agreement"), ("optsync", "liveness")}
    )


# ------------------------------------------------------------------ one judge
def test_matrix_detector_and_replay_judge_a_clean_spec_alike():
    """The three surfaces generate specs for one judge, so one spec yields
    one verdict: the same report list, label-independent when clean."""
    config = FuzzConfig(protocols=("eesmr",))
    spec = config.spec_for(None, "eesmr")
    cell = ScenarioCell("eesmr", "none", spec.medium)
    entry = CorpusEntry(entry_id="probe", spec=spec.to_dict())
    matrix_verdict = judge(cell, spec, SessionBuilder)
    replayed = judge(f"corpus:{entry.entry_id}", entry.build_spec(), SessionBuilder)
    assert matrix_verdict.reports == replayed.reports
    assert [report.name for report in replayed.reports] == [
        invariant.name for invariant in DEFAULT_INVARIANTS
    ]
    assert replayed.ok and replayed.skip_reason is None
    (detected,) = Detector(config).detect(None).verdicts
    assert detected.reports == replayed.reports
    assert detected.evidence.trace.fingerprint() == replayed.evidence.trace.fingerprint()


def test_livelock_is_a_no_livelock_report_for_detector_and_replay_alike(monkeypatch):
    """A run that trips the event budget is a finding, not a traceback —
    for the detector that records it *and* for the replay of what it
    recorded."""
    config = FuzzConfig(protocols=("eesmr",))
    # The unbudgeted run executes 33 events.
    monkeypatch.setattr(session_module, "MAX_EVENTS", 20)
    (detected,) = Detector(config).detect(None).verdicts
    replayed = judge("corpus:probe", config.spec_for(None, "eesmr"), SessionBuilder)
    assert replayed.reports == replayed.violations()
    assert [report.name for report in replayed.reports] == ["no-livelock"]
    assert "[no-livelock @ corpus:probe] " in replayed.reports[0].detail
    assert "max_events=20" in replayed.reports[0].detail
    assert replayed.result is None and replayed.evidence is None

    def unlabelled(report):
        return (report.name, report.ok, report.detail.split("] ", 1)[1])

    assert [unlabelled(r) for r in detected.violations()] == [
        unlabelled(r) for r in replayed.violations()
    ]
