"""Property tests for the fuzzing loop's algebra.

The shrinker's contract is algebraic, so it is pinned property-style
against a stub detector (a plain predicate — no protocol runs, so
hypothesis can afford hundreds of examples):

* **determinism** — shrinking the same failing schedule twice yields the
  same reproducer, step and evaluation counts included;
* **still fails** — the reproducer fails the same predicate the input
  failed;
* **narrowing** — the reproducer is an ordered subsequence of the input
  in which every surviving atom is at most as strong: identical, a
  narrower window, or a smaller adaptive budget.

Plus the serialisation fixed point the corpus depends on: for any
generated schedule, ``spec.to_dict → from_dict → to_dict`` is identity.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.runner import DeploymentSpec
from repro.fuzz import FuzzConfig
from repro.fuzz.detect import Detection, ProtocolVerdict
from repro.fuzz.generator import ScheduleGenerator
from repro.fuzz.shrink import Shrinker
from repro.testkit.faults import LeaderFollowingCrash
from repro.testkit.invariants import InvariantReport


class StubDetector:
    """Fails a schedule iff it contains an atom of ``required_kind``."""

    def __init__(self, required_kind):
        self.required_kind = required_kind

    def detect(self, schedule):
        violations = []
        if any(type(a).__name__ == self.required_kind for a in schedule.faults):
            violations = [InvariantReport("agreement", False, "stub")]
        return Detection(
            schedule=schedule, verdicts=[ProtocolVerdict("eesmr", violations=violations)]
        )


@st.composite
def failing_cases(draw):
    """A generated schedule plus a predicate kind it actually contains."""
    seed = draw(st.integers(0, 500))
    schedule = ScheduleGenerator(FuzzConfig(), seed=seed).generate()
    kinds = sorted({type(a).__name__ for a in schedule.faults})
    return schedule, draw(st.sampled_from(kinds))


def atom_is_narrowing_of(shrunk, original):
    """``shrunk`` is ``original`` weakened by the shrinker's moves only."""
    if type(shrunk) is not type(original):
        return False
    if isinstance(shrunk, LeaderFollowingCrash):
        return (
            shrunk.budget <= original.budget
            and shrunk.start == original.start
            and shrunk.interval == original.interval
        )
    window, source = shrunk.impairment(), original.impairment()
    if window is not None and source is not None:
        same_node = getattr(shrunk, "node", None) == getattr(original, "node", None)
        return same_node and source[0] <= window[0] and window[1] <= source[1]
    return shrunk == original


def is_subsequence_narrowing(shrunk_schedule, original_schedule):
    """Every shrunk atom matches, in order, a distinct original atom."""
    index = 0
    originals = original_schedule.faults
    for atom in shrunk_schedule.faults:
        while index < len(originals) and not atom_is_narrowing_of(atom, originals[index]):
            index += 1
        if index >= len(originals):
            return False
        index += 1
    return True


def shrink(detector, schedule):
    """Shrink ``schedule`` from ``detector``'s first detection of it."""
    return Shrinker(detector).shrink(schedule, detector.detect(schedule))


@settings(max_examples=60, deadline=None)
@given(failing_cases())
def test_shrink_is_deterministic(case):
    schedule, kind = case
    first = shrink(StubDetector(kind), schedule)
    second = shrink(StubDetector(kind), schedule)
    assert first.describe() == second.describe()


@settings(max_examples=60, deadline=None)
@given(failing_cases())
def test_shrunk_output_still_fails(case):
    schedule, kind = case
    result = shrink(StubDetector(kind), schedule)
    assert StubDetector(kind).detect(result.schedule).failed
    assert result.failure_key == frozenset({("eesmr", "agreement")})


@settings(max_examples=60, deadline=None)
@given(failing_cases())
def test_shrunk_output_is_a_narrowing_of_the_input(case):
    schedule, kind = case
    result = shrink(StubDetector(kind), schedule)
    assert len(result.schedule.faults) <= len(schedule.faults)
    assert is_subsequence_narrowing(result.schedule, schedule)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 500))
def test_generated_spec_dict_round_trip_is_a_fixed_point(seed):
    config = FuzzConfig()
    schedule = ScheduleGenerator(config, seed=seed).generate()
    for protocol in ("eesmr", "trusted-baseline"):
        payload = config.spec_for(schedule, protocol).to_dict()
        assert DeploymentSpec.from_dict(payload).to_dict() == payload
