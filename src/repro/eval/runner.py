"""The deployment spec, its result and ``run_protocol``, under their old path.

They live in :mod:`repro.session`; the experiments and the ``bench/``
workloads import them from here.
"""

from repro.session.builder import run_protocol
from repro.session.spec import MEDIA, PROTOCOLS, TOPOLOGIES, DeploymentSpec, RunResult

__all__ = ["MEDIA", "PROTOCOLS", "TOPOLOGIES", "DeploymentSpec", "RunResult", "run_protocol"]
