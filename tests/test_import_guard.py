"""Cold start: a deployment run stays on the standard library.

networkx and numpy used to cost every process 216 ms of import and ~30 MiB
of resident memory for three graph calls and one grid, and multiprocessing
another 21 ms for a pool a serial sweep never builds.  Each runs in a fresh
interpreter, so a stray top-level import anywhere on the run path — which
would silently give that back — fails here.  This file needs only pytest:
it is what CI's ``minimal-deps`` job runs with nothing else installed.

The same holds for OpenSSL: ``hashlib`` (through ``_hashlib``) maps
``libcrypto`` into the process, 3.5 MiB of every run's peak resident memory,
for SHA-256 digests that CPython's built-in module computes bit-identically.
Hashing goes through ``repro.crypto.hashing.sha256``, so a run loads none of
``hashlib``, ``_hashlib``, ``hmac`` or ``_ssl``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

RUN_PATH = """
import json, sys
{prelude}
import repro.cli, repro.session, repro.testkit
from repro.session import DeploymentSpec, SessionBuilder
from repro.testkit import ScenarioMatrix

spec = DeploymentSpec(protocol="eesmr", n=7, f=2, k=3, target_height=3)
result = SessionBuilder(spec).build().run_to_quiescence().finish()
assert result.committed_blocks == 3 and result.safety.consistent

report = ScenarioMatrix(
    protocols=("eesmr",), fault_names=("none", "crash-leader"), media=("ble",), n=7, f=2, k=3
).run(parallel=1)
assert report.cells_run == 2 and report.ok, report.failures()
{epilogue}
"""


def run_python(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


def test_run_path_never_imports_third_party_or_multiprocessing():
    heavy = ("numpy", "networkx", "multiprocessing", "concurrent.futures.process")
    script = RUN_PATH.format(
        prelude="",
        epilogue=f"print(json.dumps([name for name in {heavy!r} if name in sys.modules]))",
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_run_path_never_loads_an_openssl_backed_module():
    openssl = ("hashlib", "_hashlib", "hmac", "_ssl")
    script = RUN_PATH.format(
        prelude="",
        epilogue=f"""
maps = "/proc/self/maps"
libcrypto = None
if os.path.exists(maps):
    with open(maps) as handle:
        libcrypto = sorted({{line.split()[-1] for line in handle if "libcrypto" in line}})
print(json.dumps([[name for name in {openssl!r} if name in sys.modules], libcrypto]))
""",
    ).replace("import json, sys", "import json, os, sys", 1)
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    modules, libcrypto = json.loads(proc.stdout.splitlines()[-1])
    assert modules == []
    if libcrypto is None:
        pytest.skip("no /proc/self/maps: the libcrypto mapping check is Linux-only")
    assert libcrypto == []


#: ``None`` in ``sys.modules`` makes ``import name`` raise ModuleNotFoundError:
#: the interpreter behaves as if the package were not installed.
UNINSTALL = 'sys.modules["numpy"] = sys.modules["networkx"] = None'


def test_every_subcommand_but_fig1_works_with_neither_package_installed():
    script = RUN_PATH.format(
        prelude=UNINSTALL,
        epilogue="""
from repro.cli import main
assert main(["run", "--protocol", "sync-hotstuff", "-n", "5", "-f", "1", "-k", "2", "--blocks", "2"]) == 0
assert main(["matrix", "--protocols", "eesmr", "--faults", "none", "--media", "ble"]) == 0
assert main(["experiment", "table2"]) == 0
assert main(["fuzz", "--iterations", "1", "--protocols", "eesmr"]) == 0
assert main(["analyze", "--list-rules"]) == 0
""",
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_features_that_need_a_missing_package_say_so_in_one_line():
    script = f"""
import sys
{UNINSTALL}
from repro.cli import main
from repro.net.topology import ring_kcast_topology
from repro.optional import MissingDependencyError

assert main(["feasibility", "--max-nodes", "8"]) == 2
assert main(["experiment", "fig1"]) == 2
try:
    ring_kcast_topology(12, 4).is_partition_resistant(2, exhaustive_limit=1)
except MissingDependencyError as error:
    print(f"repro: {{error}}", file=sys.stderr)
else:
    raise AssertionError("the connectivity bound ran without networkx")
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "repro: feasible_region() (the Fig. 1 grid) needs the 'numpy' package, which is not installed",
        "repro: feasible_region() (the Fig. 1 grid) needs the 'numpy' package, which is not installed",
        "repro: is_partition_resistant() past the exhaustive limit needs the 'networkx' package, "
        "which is not installed",
    ]


def eval_imports(path: Path) -> list:
    """``(line, module)`` for every import of ``repro.eval`` in ``path``,
    deferred imports inside functions included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
            if node.module == "repro":
                modules += [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m == "repro.eval" or m.startswith("repro.eval.")]
    return found


def test_the_run_path_packages_never_import_the_experiments_package():
    """``repro.eval`` holds the paper's experiments and runs deployments
    through ``repro.session``; nothing the run path is made of imports it back."""
    offenders = {}
    for package in ("session", "testkit", "fuzz"):
        for path in sorted((Path(SRC) / "repro" / package).rglob("*.py")):
            if found := eval_imports(path):
                offenders[str(path.relative_to(SRC))] = found
    assert offenders == {}
