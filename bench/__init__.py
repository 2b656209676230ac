"""bench: the repo's end-to-end x per-layer performance ledger.

``python3 -m bench --workload W --seed S --seconds T --trace 0|1`` measures
one workload (the form ``BENCHMARK.json`` names); ``python3 -m bench``
with no ``--workload`` runs all five interleaved and writes a ledger file;
``python3 -m bench --compare A.json B.json`` applies the bounds.  See
``bench/README.md``.

The package drives ``src/repro`` through its public entry points only and
changes nothing in it.  It is run from a checkout root without
``PYTHONPATH``, so it puts ``src/`` on the path itself when ``repro`` is
not already importable.
"""

import importlib.util
import sys
from pathlib import Path

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(ROOT / "src"))
