"""Experiment harness: deployment spec, workloads and per-figure experiments.

:mod:`repro.eval.experiments` is a submodule, not an eager import: every
run imports this package for the spec and result types, and only the
table/figure commands need the experiments.  ``from repro.eval import experiments``
loads it on demand.
"""

from repro.eval.runner import DeploymentSpec, RunResult, run_protocol
from repro.eval.workloads import (
    generate_commands,
    commands_for_run,
    fill_txpools,
    client_for_run,
    SensorReadingWorkload,
)
from repro.eval.tables import format_table, format_series

__all__ = [
    "DeploymentSpec",
    "RunResult",
    "run_protocol",
    "generate_commands",
    "commands_for_run",
    "fill_txpools",
    "client_for_run",
    "SensorReadingWorkload",
    "experiments",
    "format_table",
    "format_series",
]
