"""Experiment harness: the paper's per-table and per-figure experiments.

The deployment spec, the run result and ``run_protocol`` live in
:mod:`repro.session`; :mod:`repro.eval.runner` re-exports them under their
old path.  :mod:`repro.eval.experiments` is a submodule, not an eager
import: only the table/figure commands need it, and
``from repro.eval import experiments`` loads it on demand.
"""

from repro.eval.tables import format_table

__all__ = [
    "experiments",
    "format_table",
]
