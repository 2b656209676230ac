"""Seeded, feasibility-checked random fault-schedule generation.

:class:`ScheduleGenerator` composes random
:class:`~repro.testkit.faults.FaultSchedule`\\ s from the testkit's fault
atoms — crash/stall/equivocate/silent behaviours, relay-drop, partition
and crash-recover windows, and the adaptive
:class:`LeaderFollowingCrash` — under
a :class:`FuzzConfig` describing the deployment the schedules will run
against.

Candidates are *rejection-sampled*: a draw that puts two Byzantine
behaviours on one node, breaks the ``2f < n`` quorum bound, or
disconnects the correct nodes under some concurrently impaired set
(:func:`~repro.testkit.scenarios.schedule_feasibility`, the same gate the
scenario matrix skips cells with) is discarded and redrawn.  Every
schedule the generator *emits* is therefore guaranteed runnable — the
detector never wastes a run on an infeasible adversary, and an invariant
violation found downstream is a real finding, not a provisioning artifact.

Determinism: all randomness flows through one :class:`SeededRNG` stream
derived from the fuzz seed, and every knob (time quantum, horizon, atom
kinds) lives on the config — the same (config, seed) pair reproduces the
same schedule sequence byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.session.spec import PROTOCOLS, DeploymentSpec
from repro.net.impairment import SpecError
from repro.sim.rng import SeededRNG, derive_seed
from repro.testkit import faults
from repro.testkit.scenarios import schedule_feasibility

#: Atom kinds the generator draws from by default: every registered kind,
#: in ``FAULT_KINDS`` order (every fuzz seed's draws depend on that order).
DEFAULT_KINDS: Tuple[str, ...] = tuple(faults.FAULT_KINDS)

#: Loss/duplicate probabilities drawn for impairment windows.  Moderate on
#: purpose: the reliable sublayer's default retry budget covers these, so
#: honest runs stay live and a finding under them is a real differential,
#: not an expected give-up.
IMPAIRMENT_PROBABILITIES: Tuple[float, ...] = (0.25, 0.5)

#: Times are drawn on a fixed grid so generated schedules serialise to
#: short, stable JSON (and window narrowing meets drop-atom candidates on
#: the same grid).
TIME_QUANTUM = 0.25


@dataclass(frozen=True)
class FuzzConfig:
    """The deployment and generation knobs one fuzz campaign runs under."""

    # ------------------------------------------------------------ deployment
    n: int = 5
    k: int = 2
    topology: str = "ring-kcast"
    edges_per_node: int = 1
    medium: str = "ble"
    target_height: int = 3
    #: Space proposals over virtual time so mid-run faults (windows,
    #: adaptive strikes) actually intersect dissemination; with the
    #: paper's zero interval the whole workload floods at t≈0 and most
    #: timed faults would be trivially harmless.
    block_interval: float = 2.0
    #: The seed of the *runs* (workload, jitter) — distinct from the fuzz
    #: seed, which drives schedule generation.
    run_seed: int = 29
    # ------------------------------------------------------------ generation
    max_atoms: int = 3
    #: Fault times are drawn from ``[0, horizon)`` on the TIME_QUANTUM grid.
    horizon: float = 10.0
    #: Trigger rounds for stalling/equivocating leaders are drawn from
    #: ``[1, max_rounds]``.
    max_rounds: int = 4
    #: Adaptive budgets are drawn from ``[1, max_adaptive_budget]``.
    max_adaptive_budget: int = 2
    kinds: Tuple[str, ...] = DEFAULT_KINDS
    #: Protocols the detector evaluates each schedule against.
    protocols: Tuple[str, ...] = PROTOCOLS
    #: Rejection-sampling bound per emitted schedule.
    max_attempts: int = 200

    def __post_init__(self) -> None:
        unknown = [kind for kind in self.kinds if kind not in faults.FAULT_KINDS]
        if unknown:
            raise SpecError(
                f"unknown fault kinds {unknown}; known: {sorted(faults.FAULT_KINDS)}", "kinds"
            )
        if self.max_atoms < 1:
            raise SpecError(f"must be >= 1, got {self.max_atoms}", "max_atoms")
        if self.horizon <= 0:
            raise SpecError(f"must be positive, got {self.horizon}", "horizon")

    # -------------------------------------------------------------- specs
    def spec_for(self, schedule: Optional[faults.FaultSchedule], protocol: str) -> DeploymentSpec:
        """The deployment spec that runs ``schedule`` under ``protocol``.

        ``f`` is provisioned to the schedule's worst-case Byzantine count
        (static targets plus adaptive budgets) so quorum sizes match the
        adversary actually deployed — the same rule the scenario matrix
        applies per cell.
        """
        f = 1
        if schedule is not None:
            f = max(f, schedule.max_byzantine())
        return DeploymentSpec(
            protocol=protocol,
            n=self.n,
            f=f,
            k=self.k,
            topology=self.topology,
            edges_per_node=self.edges_per_node,
            medium=self.medium,
            target_height=self.target_height,
            block_interval=self.block_interval,
            seed=self.run_seed,
            fault_schedule=schedule,
        )


class ScheduleGenerator:
    """Draws feasible random fault schedules for a :class:`FuzzConfig`."""

    def __init__(self, config: FuzzConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.rng = SeededRNG(derive_seed(seed, "fuzz-generator"))
        #: Candidates discarded by feasibility/validity since construction
        #: (observability for the rejection tests and the CLI summary).
        self.rejected = 0

    # ------------------------------------------------------------ feasibility
    def feasibility(self, schedule: faults.FaultSchedule) -> Optional[str]:
        """Why ``schedule`` cannot run under this config, or ``None``.

        Checked against the *replicated* protocols (the strictest case:
        the trusted baseline tolerates any minority adversary); delegates
        to the matrix's :func:`schedule_feasibility` gate.
        """
        return schedule_feasibility(self.config.spec_for(schedule, "eesmr"))

    # --------------------------------------------------------------- drawing
    def generate(self) -> faults.FaultSchedule:
        """One feasible schedule (rejection-sampled, deterministic)."""
        for _ in range(self.config.max_attempts):
            count = self.rng.randint(1, self.config.max_atoms)
            try:
                schedule = faults.FaultSchedule(
                    tuple(self._sample_atom() for _ in range(count))
                )
            except ValueError:
                # Two Byzantine behaviours landed on one node; redraw.
                self.rejected += 1
                continue
            if self.feasibility(schedule) is None:
                return schedule
            self.rejected += 1
        raise RuntimeError(
            f"no feasible schedule found in {self.config.max_attempts} attempts; "
            f"loosen the config (n={self.config.n}, topology={self.config.topology}, "
            f"kinds={self.config.kinds})"
        )

    # ---------------------------------------------------------------- atoms
    def _sample_atom(self) -> faults.Fault:
        kind = self.rng.choice(self.config.kinds)
        node = self.rng.randint(0, self.config.n - 1)
        if kind == "CrashAt":
            return faults.CrashAt(node, time=self._grid_time())
        if kind == "StallAt":
            return faults.StallAt(node, round=self._round())
        if kind == "EquivocateAt":
            return faults.EquivocateAt(node, round=self._round())
        if kind == "SilentFrom":
            return faults.SilentFrom(node)
        if kind == "RelayDropWindow":
            start, end = self._window()
            return faults.RelayDropWindow(node, start, end)
        if kind == "PartitionWindow":
            start, heal = self._window()
            return faults.PartitionWindow(node, start, heal)
        if kind == "CrashRecoverWindow":
            start, heal = self._window()
            return faults.CrashRecoverWindow(node, start, heal)
        if kind == "LossWindow":
            start, end = self._short_window()
            return faults.LossWindow(node, start, end, loss=self._impairment_probability())
        if kind == "DuplicateWindow":
            start, end = self._short_window()
            return faults.DuplicateWindow(
                node, start, end, probability=self._impairment_probability()
            )
        if kind == "JitterWindow":
            start, end = self._short_window()
            return faults.JitterWindow(
                node, start, end, jitter=self._grid_time(minimum=TIME_QUANTUM)
            )
        if kind == "LeaderFollowingCrash":
            return faults.LeaderFollowingCrash(
                budget=self.rng.randint(1, self.config.max_adaptive_budget),
                start=self._grid_time(),
                interval=self._grid_time(minimum=TIME_QUANTUM),
            )
        raise AssertionError(f"unhandled kind {kind!r}")  # pragma: no cover

    def _grid_time(self, minimum: float = 0.0) -> float:
        """A time on the TIME_QUANTUM grid in ``[minimum, horizon)``."""
        lo = int(round(minimum / TIME_QUANTUM))
        hi = max(lo, int(self.config.horizon / TIME_QUANTUM) - 1)
        return self.rng.randint(lo, hi) * TIME_QUANTUM

    def _round(self) -> int:
        return self.rng.randint(1, self.config.max_rounds)

    def _window(self) -> Tuple[float, float]:
        """A non-empty ``[start, end)`` window on the grid inside the horizon."""
        start = self._grid_time()
        end = self._grid_time(minimum=start + TIME_QUANTUM)
        return start, max(end, start + TIME_QUANTUM)

    def _impairment_probability(self) -> float:
        return self.rng.choice(IMPAIRMENT_PROBABILITIES)

    def _short_window(self) -> Tuple[float, float]:
        """A window of at most 4 quanta: short enough that default-budget
        retry chains straddle it, so honest runs essentially never give up
        and impairment findings are signal, not retry-budget noise."""
        start = self._grid_time()
        length = self.rng.randint(1, 4) * TIME_QUANTUM
        return start, start + length
