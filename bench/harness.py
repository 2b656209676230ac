"""Rounds, child processes and the two passes of one workload.

Harness rules (part of the benchmark's definition): single process, single
thread, no worker pools.  A *round* runs the workload's fixed list of
operations once, preceded by ``canonical_cache.clear()`` and
``gc.collect()``.  The first round is an untimed warm-up (lazy imports and
first-call caches finish there) and the reference every later round's
deterministic values must equal.  The timed pass runs with no profile hook
installed; a separate traced pass yields the per-layer numbers.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
import warnings
from typing import Any, Dict, List, Optional

from repro.core.txpool import TxPoolOverflowWarning
from repro.crypto.hashing import canonical_cache

from bench import ROOT, calibrate, metrics, verify
from bench.trace import Tracer, write_spans
from bench.workloads import Workload

#: Fresh child processes timed for ``setup_s``.
SETUP_CHILDREN = 5
#: The timed pass never reports a median of fewer rounds than this.
MIN_TIMED_ROUNDS = 5

SPAN_DIR = ROOT / "bench" / "out"


def own_peak_rss_mb() -> float:
    """This process's resident-set high-water mark since its exec, in MiB.

    ``ru_maxrss`` (``os.wait4`` / ``getrusage``) will not do: Linux folds
    the pre-exec image into it, so a child's value is at least its parent's
    resident size at spawn time, whatever the child itself does."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the kernel reports kB
    raise RuntimeError("/proc/self/status has no VmHWM line")


def run_child(mode: str, workload: str, seed: int) -> tuple:
    """Run ``python -m bench --child``; return (wall seconds, what it printed)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--child", mode,
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"bench child {mode!r} for {workload} exited {proc.returncode}")
    return wall, proc.stdout


class WorkloadRun:
    """One workload at one seed: its inputs, rounds and collected samples."""

    def __init__(self, workload: Workload, seed: int, small: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.inputs = workload.generate(seed, small)
        #: Deterministic values of the warm-up round.
        self.reference: Optional[Dict[str, Any]] = None
        self.attempted = 0
        self.failed = 0
        self.walls: List[float] = []
        self.costs: List[float] = []
        #: (kernel before, kernel after) of every timed round.
        self.kernels: List[tuple] = []
        self.setups: List[float] = []
        self.peak_rss_mb = 0.0
        self.traced_walls: List[float] = []
        self.traces: List[Dict[str, Any]] = []
        self.first_tracer: Optional[Tracer] = None

    # ------------------------------------------------------------------ rounds
    def round(self, tracer: Optional[Tracer] = None) -> float:
        """Run, verify and count one round; returns its wall seconds."""
        canonical_cache.clear()
        gc.collect()
        with warnings.catch_warnings():
            # Overflow drops are what the open-loop workload measures.
            warnings.simplefilter("ignore", TxPoolOverflowWarning)
            start = time.perf_counter()
            if tracer is not None:
                tracer.start()
            try:
                operations = list(self.workload.run(self.inputs))
                canon = canonical_cache.stats()
            finally:
                if tracer is not None:
                    tracer.stop()
            wall = time.perf_counter() - start
        name = self.workload.name
        failed = verify.check_round(name, operations)
        values = metrics.round_values(operations, canon)
        if self.reference is None:
            self.reference = values
        elif not verify.check_determinism(name, self.reference, values):
            failed = len(operations)
        self.attempted += len(operations)
        self.failed += failed
        return wall

    def timed_round(self, kernel_before: float) -> float:
        """One timed round; returns the kernel time taken right after it,
        which is also the next round's ``kernel_before``."""
        if sys.getprofile() is not None:
            raise RuntimeError("the timed pass must run with no profile hook installed")
        wall = self.round()
        kernel_after = calibrate.time_kernel()
        self.walls.append(wall)
        self.costs.append(wall / ((kernel_before + kernel_after) / 2.0))
        self.kernels.append((kernel_before, kernel_after))
        return kernel_after

    def traced_round(self) -> None:
        tracer = Tracer()
        self.traced_walls.append(self.round(tracer))
        summary = tracer.summary()
        if self.traces:
            first, now = (
                {k: v for k, v in metrics.traced_values(t).items() if metrics.is_exact(k)}
                for t in (self.traces[0], summary)
            )
            if not verify.check_determinism(self.workload.name, first, now):
                self.failed += 1
        else:
            self.first_tracer = tracer
        self.traces.append(summary)

    def measure_children(self) -> None:
        """Peak RSS of set-up plus one round, then set-up time of fresh
        processes (the RSS child goes first, so byte-code caches are warm)."""
        name = self.workload.name
        self.peak_rss_mb = float(run_child("round", name, self.seed)[1])
        self.setups = [run_child("setup", name, self.seed)[0] for _ in range(SETUP_CHILDREN)]

    # ----------------------------------------------------------------- results
    def end_to_end(self) -> Dict[str, float]:
        calibrate.check_kernel_samples(self.kernels)
        values = {
            "setup_s": statistics.median(self.setups),
            "host_cost": calibrate.midmean(self.costs),
            "peak_rss_mb": self.peak_rss_mb,
        }
        values.update({name: self.reference[name] for name in metrics.MODELLED})
        return values

    def per_layer(self) -> Dict[str, float]:
        values = dict(self.reference)
        traced = [metrics.traced_values(trace) for trace in self.traces]
        for name, first in traced[0].items():
            values[name] = (
                first if metrics.is_exact(name)
                else statistics.median(t[name] for t in traced)
            )
        wall = statistics.median(self.walls)
        values["bench.rounds"] = len(self.walls)
        values["bench.round_wall_s"] = wall
        values["bench.cal_kernel_s"] = statistics.median(after for _, after in self.kernels)
        values["bench.trace_overhead"] = statistics.median(self.traced_walls) / wall
        return {m.name: values[m.name] for m in metrics.PER_LAYER}

    def noise(self) -> Dict[str, float]:
        """Quartile spread of the samples behind each sampled end-to-end
        median, scaled to the median's own uncertainty (``--compare``
        reports a metric as unresolved when this exceeds its bound)."""
        return {
            "setup_s": calibrate.quartile_spread(self.setups) / len(self.setups) ** 0.5,
            "host_cost": calibrate.quartile_spread(self.costs) / len(self.costs) ** 0.5,
        }

    def write_spans(self) -> None:
        if self.first_tracer is not None:
            write_spans(self.first_tracer, SPAN_DIR / f"spans-{self.workload.name}.jsonl")


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> WorkloadRun:
    """The ``BENCHMARK.json`` form: one workload, measured for ``seconds``."""
    run = WorkloadRun(workload, seed)
    run.round()
    if not trace:
        run.measure_children()
    kernel = calibrate.time_kernel()
    start = time.perf_counter()
    while len(run.walls) < (1 if trace else MIN_TIMED_ROUNDS) or (
        time.perf_counter() - start < seconds
    ):
        kernel = run.timed_round(kernel)
        if trace:
            run.traced_round()
            # The hook's own cost must not sit inside the next kernel pair.
            kernel = calibrate.time_kernel()
    if trace:
        run.write_spans()
    return run
